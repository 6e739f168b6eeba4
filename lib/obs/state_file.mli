(** Side-state files: the one format, writer and loader for the
    advisory state a data directory keeps beside its snapshot and
    write-ahead log — the learned optimizer catalog ([stats.mad]),
    the workload digest ([digest.mad]) and the telemetry timeline
    ([timeline.mad]).  The modules owning that state only map it to
    and from records.

    {b Format.}  A file of kind [k] at version [N] is named [k.mad];
    its first line is [# MAD k vN].  Every further line is one record:
    space-separated fields, each a token — a number, a keyword, or a
    string passed through {!encode}.  The writer ends every line with
    a newline.

    {b Writer.}  {!write_atomically} replaces a file through a
    temporary beside it (write, fsync, rename), so a reader sees the
    old file or the new one, never a prefix.  The snapshot uses it
    too.

    {b Loader.}  Loading advisory state never raises and never blocks
    a data directory from opening.  A missing file is absent.  An
    empty file, a wrong or missing header, or an unreadable file is
    reported once on stderr and ignored.  A malformed record is
    skipped and counted; so is a final line without its newline (a
    torn write). *)

type t = { kind : string; version : int }

val path : string -> t -> string
(** [path dir sf] is [dir/<kind>.mad]. *)

val encode : string -> string
(** Percent-encode a string into one field: ['%'], space, [','],
    ['='] and control characters become [%XX]; [""] becomes ["-"]
    and ["-"] becomes ["%2D"].  The result is never empty and holds
    no space, comma, equals sign or line break, so callers may join
    encoded fields with [','] and ['='] into composite fields. *)

val decode : string -> string
(** Inverse of {!encode}: [decode (encode s) = s] for every [s]. *)

val float_field : float -> string
(** A float as a field, printed with ["%.17g"] so [float_of_string]
    reads back the same float. *)

val to_string : t -> string list list -> string
(** The header line, then one line per record. *)

val of_string : t -> string -> (string list list * int, string) result
(** The records under a matching header, and how many torn lines were
    dropped (0 or 1).  [Error] names what is wrong with an empty file
    or a wrong header. *)

val fold : ('a -> string list -> 'a) -> 'a -> string list list -> 'a * int
(** [fold step init records] applies [step] record by record.  A
    record whose [step] raises [Failure] (say, from [int_of_string]) is
    malformed: it is skipped, the accumulator is kept, and it is
    counted in the second result.  The owners of side state map
    records back with this. *)

val write_atomically : string -> string -> unit
(** Replace [path] with [text]: write [path.tmp], fsync it, rename it
    over [path].  Raises [Unix.Unix_error]; no [.tmp] is left behind
    either way. *)

val save : t -> string -> string list list -> unit
(** [save sf dir records] writes [path dir sf] atomically.  A failure
    is reported on stderr, not raised. *)

val load : t -> string -> (string list list -> int) -> bool
(** [load sf dir merge] reads [path dir sf] and hands its records to
    [merge], which applies them and returns how many it rejected as
    malformed.  [true] when the file was read; [false] when it is
    absent or was ignored (reported on stderr).  Skipped records are
    reported with their count.  Never raises. *)
