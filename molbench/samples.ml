(** Retained samples and exact order statistics over them.

    Every latency the benchmark reports is computed from the raw
    samples it kept — never from histogram buckets or a regression
    fit — so a quantile is always one of the measured values. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let a = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 a 0 t.n;
    t.a <- a
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let length t = t.n
let to_array t = Array.sub t.a 0 t.n

(* nearest rank: the smallest sample with at least a [q] share of the
   samples at or below it *)
let quantile_of_array a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (k - 1)))
  end

let quantile t q = quantile_of_array (to_array t) q
let median t = quantile t 0.5

(** Median of the last tenth of the samples (in arrival order) over the
    median of the first tenth: 1.0 when latency does not drift over
    the run. *)
let drift t =
  let k = max 1 (t.n / 10) in
  let first = Array.sub t.a 0 (min k t.n)
  and last = Array.sub t.a (max 0 (t.n - k)) (min k t.n) in
  let m0 = quantile_of_array first 0.5 in
  if m0 <= 0.0 then 0.0 else quantile_of_array last 0.5 /. m0
