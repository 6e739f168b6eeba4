(** The learned statistics catalog as side-state records: {!Stats.t}
    as the [stats.mad] file of a durable data directory, so a
    session's optimizer starts from the estimates the previous session
    converged onto.  {!Mad_obs.State_file} reads and writes the file. *)

val state_file : Mad_obs.State_file.t
(** Kind [stats], version 2. *)

val records : Stats.t -> string list list

val of_records : string list list -> Stats.t * int
(** The catalog the records describe, and how many were malformed
    (skipped). *)
