(** The delta-maintenance patch log: the layer between the store's op
    stream and the kernel's derived caches.

    Any mutation bumps [Database.epoch], which invalidates every CSR
    snapshot and memoized closure — fine for read-mostly traffic,
    fatal for write-heavy serving, where each commit forces full
    rebuilds on the next read.  This module taps the op stream
    ({!Mad_store.Database.add_tap} — the same stream the WAL journal
    hook sees, plus the cascade sub-ops and scratch mutations the
    journal is spared) and accumulates per-epoch patches, so that on
    the next read the consumers can {e repair} their caches:

    - {!Snapshot.of_db} applies compacted link/atom patches to the
      prior CSR in place of a full rebuild;
    - the recursive closure memo re-stamps or partially repairs
      memoized closures whose reachable sets the window misses
      ([Mad_recursive]);
    - MOL session catalogs skip re-deriving molecule types whose
      structure the window does not touch ([Mad_mql.Session.refresh]).

    A {!window} is the compacted view of the patches between two
    epochs.  It is [None] — consumers must rebuild — when the log does
    not cover the range (tracking started later, or the bounded buffer
    overflowed), when the range contains a schema-shaped op, or when
    the patch volume crosses {!max_patches} (past that point replaying
    patches costs more than rebuilding).

    Tracking is per-database and idempotent; the log lives exactly as
    long as its database (the tap closure is owned by the database).
    {!Snapshot.rebuild} is the from-scratch reference the delta
    path is checked against. *)

open Mad_store

type window
(** Compacted patches over an epoch range (exclusive-inclusive): per
    link type the last-wins verdict per (left, right) pair, per atom
    type the last-wins verdict per identity. *)

val track : Database.t -> unit
(** Start accumulating patches for [db] (idempotent; installs one op
    tap).  Epochs before the call are not covered: a window reaching
    below the tracking start is [None]. *)

val tracked : Database.t -> bool

val window : Database.t -> from_epoch:int -> to_epoch:int -> window option
(** The compacted patches moving [db] from [from_epoch] to [to_epoch]
    (patches with epoch in [(from_epoch, to_epoch]]).  [None] when the
    log cannot prove it saw every op in the range, when the range
    contains a schema op, or when it holds more than {!max_patches}
    raw patches.  [from_epoch = to_epoch] yields an empty window. *)

val touches_link : window -> string -> bool
(** Some link of the named type was added or removed in the window. *)

val touches_atype : window -> string -> bool
(** Some atom of the named type was inserted or deleted in the window
    (attribute updates do not count: they cannot change any derived
    {e structure}). *)

val link_patches : window -> string -> ((Aid.t * Aid.t) * bool) list
(** Per (left, right) pair of the named link type, the compacted
    verdict: [true] = present after the window, [false] = absent.
    Pairs the window did not touch are not listed. *)

val atom_patches : window -> string -> (Aid.t * bool) list
(** Per identity of the named atom type, the compacted verdict. *)

val patch_count : window -> int
(** Raw (pre-compaction) patches in the window — the volume the
    threshold compares against. *)

val max_patches : unit -> int
(** The patch-volume threshold: 4096 unless {!set_max_patches}
    forced another. *)

val set_max_patches : int option -> unit
(** Test hook: force the threshold ([None] restores 4096). *)
