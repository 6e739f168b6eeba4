(** The durability engine: snapshot + write-ahead log + recovery.

    A data directory holds [snapshot.mad] (latest snapshot) and
    [wal.log] (checksummed log of DML since that snapshot); sessions
    keep their advisory side state beside them ({!Mad_obs.State_file},
    located by {!dir}).
    {!open_dir} recovers — snapshot, WAL replay with torn-tail
    tolerance, {!Integrity} re-verification — and journals every
    subsequent store mutation back to the log. *)

open Mad_store

val snapshot_basename : string
val wal_basename : string

val exists : string -> bool
(** Does the directory hold durable state (a snapshot or a log)? *)

type recovery = {
  snapshot_loaded : bool;
  replayed_records : int;
  torn_tail_bytes : int;  (** 0 = the log ended on a record boundary *)
}

val pp_recovery : Format.formatter -> recovery -> unit

type t

val open_dir :
  ?obs:Mad_obs.Obs.t ->
  ?sync:bool ->
  ?snapshot_every:int ->
  ?faults:Faults.t ->
  ?seed:Database.t ->
  string ->
  t
(** Open (or create) the data directory and recover its database:
    load [snapshot.mad] if present (else start from a copy of [seed],
    else empty — a fresh directory is seeded with an initial
    snapshot), replay every durable [wal.log] record (a torn final
    record is dropped, not fatal; the log is rewritten to its durable
    prefix), and re-verify {!Integrity} before handing the database
    back.  Fails with a file-named [Err.Mad_error] when the directory
    cannot be created or is not a writable directory, when the
    snapshot or a durable log record is damaged, or when the
    recovered database violates the model's structural invariants —
    never with a raw [Unix_error]/[Sys_error] backtrace.

    The returned handle journals every subsequent mutation.  [sync]
    (default false) fsyncs each append; [snapshot_every] rolls a
    snapshot automatically once the log holds that many records;
    [faults] arms a fault-injection plan on the log writer.  Metrics
    ([wal.append_bytes], [wal.fsync_us], [recovery.replayed_records])
    land in [obs] (default {!Mad_obs.Obs.noop}). *)

val open_or_seed :
  ?obs:Mad_obs.Obs.t ->
  ?sync:bool ->
  ?snapshot_every:int ->
  ?faults:Faults.t ->
  seed:(unit -> Database.t) ->
  string ->
  t
(** {!open_dir}, forcing the seed thunk only when the directory holds
    no durable state yet. *)

val db : t -> Database.t
val dir : t -> string
val recovery : t -> recovery

val wal_records : t -> int
(** Records currently in the log (replayed plus appended). *)

val snapshot : t -> unit
(** Rewrite [snapshot.mad] atomically (temp file + fsync + rename)
    from the live database and truncate the log. *)

val commit : t -> unit
(** Group commit: flush and fsync the log.  Statement-level
    durability without an fsync per record. *)

val sync : t -> unit
(** Flush and fsync the log without journaling a [Group_commit]
    recorder event — the cross-session {!Coordinator} wraps this and
    notes its own batch event. *)

val close : ?snapshot:bool -> t -> unit
(** Detach the journal and close the log; [snapshot] (default false)
    rolls a final snapshot first.  Idempotent. *)
