(** The learned statistics catalog as side-state records: [stats.mad]
    in a durable data directory, read and written by
    {!Mad_obs.State_file}.

    A {!Stats.t} is five string-keyed maps of scalars, one record per
    entry:
    {v
    # MAD stats v2
    count state 27
    distinct state.name 27
    link state-area 110 4.074 1
    learned state-area 3.9 - 3.2 -
    sel state|state.name%20%3D%20'SP' 0.037
    v}
    Keys are {!Mad_obs.State_file.encode}d, floats are lossless
    {!Mad_obs.State_file.float_field}s, and an absent learned factor
    is [-].
    The file is what lets a session's optimizer start from the
    estimates the previous session converged onto, instead of from
    the static catalog. *)

module Smap = Stats.Smap
module Sf = Mad_obs.State_file

let state_file = { Sf.kind = "stats"; version = 2 }

let flt = Sf.float_field
let opt_flt = function None -> "-" | Some f -> flt f

let records (s : Stats.t) =
  let each m f = List.map (fun (k, v) -> f (Sf.encode k) v) (Smap.bindings m) in
  each s.Stats.atom_counts (fun k n -> [ "count"; k; string_of_int n ])
  @ each s.Stats.distinct (fun k n -> [ "distinct"; k; string_of_int n ])
  @ each s.Stats.link_stats (fun k (ls : Stats.link_stat) ->
        [ "link"; k; string_of_int ls.Stats.pairs; flt ls.Stats.fanout_fwd;
          flt ls.Stats.fanout_bwd ])
  @ each s.Stats.learned (fun k (l : Stats.learned_link) ->
        [ "learned"; k; opt_flt l.Stats.lf_fwd; opt_flt l.Stats.lf_bwd;
          opt_flt l.Stats.lr_fwd; opt_flt l.Stats.lr_bwd ])
  @ each s.Stats.learned_sel (fun k sel -> [ "sel"; k; flt sel ])

let empty =
  {
    Stats.atom_counts = Smap.empty;
    distinct = Smap.empty;
    link_stats = Smap.empty;
    learned = Smap.empty;
    learned_sel = Smap.empty;
  }

(* one record onto the catalog; raises [Failure] when it is malformed *)
let add (s : Stats.t) record =
  let int = int_of_string and float = float_of_string in
  let opt_float = function "-" -> None | x -> Some (float x) in
  match record with
  | [ "count"; k; n ] ->
    { s with
      Stats.atom_counts = Smap.add (Sf.decode k) (int n) s.Stats.atom_counts }
  | [ "distinct"; k; n ] ->
    { s with Stats.distinct = Smap.add (Sf.decode k) (int n) s.Stats.distinct }
  | [ "link"; k; pairs; ff; fb ] ->
    let ls =
      { Stats.pairs = int pairs; fanout_fwd = float ff; fanout_bwd = float fb }
    in
    { s with Stats.link_stats = Smap.add (Sf.decode k) ls s.Stats.link_stats }
  | [ "learned"; k; ff; fb; rf; rb ] ->
    let l =
      {
        Stats.lf_fwd = opt_float ff;
        lf_bwd = opt_float fb;
        lr_fwd = opt_float rf;
        lr_bwd = opt_float rb;
      }
    in
    { s with Stats.learned = Smap.add (Sf.decode k) l s.Stats.learned }
  | [ "sel"; k; sel ] ->
    { s with
      Stats.learned_sel = Smap.add (Sf.decode k) (float sel) s.Stats.learned_sel
    }
  | _ -> failwith "unknown record"

let of_records records = Sf.fold add empty records
