(** Seconds on the monotonic clock, with nanosecond resolution (the
    microsecond steps of [Unix.gettimeofday] would make equal latencies
    of different runs read the same). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
