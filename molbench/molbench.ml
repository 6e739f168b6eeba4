(* molbench — the end-to-end MOL serving benchmark.

   One run: generate the workload from the seed and dump it, then run
   episodes until the given seconds have passed.  An episode starts
   [madql serve] on a fresh data directory (set-up is timed), drives it
   over loopback through a fixed count of reads, checks every answer
   and kills the server.  The metrics pool the episodes.  With
   [--trace 0] the metrics are the end-to-end ones; [--trace 1] is the
   separate traced run: the same load with the server's phase
   breakdown requested on half the reads, a SIGKILL + recovery check
   of the last data directory, and a local replay that times each
   layer.
   The last line of standard output is the result object.

   Usage: molbench --workload W --seed N --seconds S --trace 0|1
                   --madql PATH [--smoke] [--commit C]
   (run.py builds both executables and supplies --madql and --commit).
   Scratch files go under .molbench/ in the working directory. *)

open Mad_store
module Client = Mad_serve.Client

let now = Clock.now

(* --- the metric catalogue -------------------------------------------- *)

(** End-to-end metrics (untraced runs): name, unit. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("read_p50_us", "us");
    ("read_p99_us", "us");
    ("read_qps", "1/s");
    ("read_drift", "ratio");
    ("server_peak_rss_mb", "MB");
  ]

(** Per-layer metrics (traced run): name, unit, and the end-to-end
    metric each should move (README.md has the same table). *)
let per_layer =
  [
    ("mql.lex_us", "us", "read_p50_us on select-geo (explode-bom)");
    ("mql.parse_us", "us", "read_p50_us on select-geo (explode-bom)");
    ("mql.plan_hash_us", "us", "read_p50_us, read_drift on select-geo (explode-bom)");
    ("mql.translate_us", "us", "read_p50_us, read_drift on select-geo (explode-bom)");
    ("mql.refresh_us", "us", "read_p50_us on mixed-geo (explode-bom)");
    ("kernel.snapshot_us", "us", "read_p50_us on mixed-geo, read_drift on select-geo");
    ("kernel.delta_ratio", "ratio", "read_p50_us on mixed-geo, read_drift on select-geo");
    ("core.derive_us", "us", "read_p50_us on explode-bom (select-geo)");
    ("core.atoms_visited", "count", "read_p50_us on explode-bom (select-geo)");
    ("core.links_traversed", "count", "read_p50_us on explode-bom (select-geo)");
    ("core.rows_per_visit", "ratio", "read_p50_us on explode-bom (select-geo)");
    ("core.prop_us", "us", "read_p50_us, server_peak_rss_mb on select-geo (explode-bom)");
    ("core.render_us", "us", "read_p50_us on explode-bom");
    ("wire.response_bytes", "bytes", "read_p50_us on explode-bom");
    ("store.atom_types_start", "count", "baseline for store.atom_types_end");
    ("store.atom_types_end", "count", "read_drift, server_peak_rss_mb on select-geo; flat on explode-bom");
    ("store.epoch_per_read", "count", "read_drift, server_peak_rss_mb on select-geo; 0 on explode-bom");
    ("commit_p50_us", "us", "mixed-geo's writer, from due time (0 without a writer)");
    ("commit_p99_us", "us", "mixed-geo's writer, from due time (0 without a writer)");
    ("serve.queue_us", "us", "read_p99_us, commit_p99_us on mixed-geo");
    ("serve.lock_us", "us", "read_p99_us, commit_p99_us on mixed-geo (~0 single-client)");
    ("serve.exec_us", "us", "read_p99_us, commit_p99_us on mixed-geo");
    ("serve.wal_us", "us", "commit_p99_us on mixed-geo");
    ("serve.fsync_us", "us", "commit_p99_us on mixed-geo");
    ("serve.write_us", "us", "read_p99_us on mixed-geo");
    ("serve.other_us", "us", "read_p99_us, commit_p99_us on mixed-geo");
    ("serve.lock_contended", "count", "read_p99_us, commit_p99_us on mixed-geo (~0 single-client)");
    ("client.wire_us", "us", "read_p50_us on select-geo");
    ("durable.fsyncs_per_commit", "ratio", "commit_p50_us on mixed-geo");
    ("durable.wal_bytes_per_commit", "bytes", "commit_p50_us on mixed-geo");
    ("durable.recovery_s", "s", "commit_p50_us on mixed-geo");
    ("runtime.minor_words_per_stmt", "words", "read_p99_us, server_peak_rss_mb");
    ("runtime.major_collections", "count", "read_p99_us, server_peak_rss_mb");
    ("loadgen.late_p99_us", "us", "validity: open-loop schedule lag (mixed-geo)");
    ("trace.overhead_pct", "pct", "validity: traced vs untraced served reads");
    ("trace.unattributed_pct", "pct", "validity: server exec not covered by replay spans");
    ("error_rate", "ratio", "validity: failed, refused or wrong over attempted");
  ]

(* --- options ------------------------------------------------------------ *)

type opts = {
  kind : Workload.kind;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  madql : string;
  commit : string;
}

let work = ".molbench"

(** The seed no tuning run uses: a later claim is re-checked on it. *)
let held_out_seed = 90_001

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false and madql = ref "" and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME select-geo | explode-bom | mixed-geo");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--smoke", Arg.Set smoke, " tiny sizes (the benchmark's own test)");
      ("--madql", Arg.Set_string madql, "PATH the built madql executable");
      ("--commit", Arg.Set_string commit, "REV source revision, for the stamp");
    ]
  in
  let usage = "molbench --workload W --seed N --seconds S --trace 0|1 --madql PATH" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let kind =
    match List.assoc_opt !workload Workload.names with
    | Some k -> k
    | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
  in
  if !madql = "" then raise (Arg.Bad "--madql is required");
  if !seconds <= 0.0 then raise (Arg.Bad "--seconds must be positive");
  {
    kind;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    smoke = !smoke;
    madql = !madql;
    commit = !commit;
  }

(* --- files ---------------------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

(* --- the served load ------------------------------------------------------ *)

type served = {
  conn : int;  (** 0 = reader, 1 = writer *)
  text : string;
  expect : string list option;  (** reads: the labels the check wants *)
  timed : bool;  (** inside the timed window (not warm-up) *)
  t_send : float;
  rtt_us : float;  (** send to response *)
  lat_us : float;  (** reads: [rtt_us]; open-loop writes: from due time *)
  late_us : float;  (** open-loop writes: send time past due time *)
  answer : (string, string) result;
  phases : (string * float) list option;  (** traced requests only *)
  inserted : string option;
}

let is_read s = s.expect <> None

let ask c ~traced text =
  if traced then
    match Client.query_traced c text with
    | Ok (a, ph) -> (Ok a, Some ph)
    | Error e -> (Error e, None)
  else (Client.query c text, None)

let timed_request c ~traced ~due text =
  let t0 = now () in
  let answer, phases = ask c ~traced text in
  let t1 = now () in
  let due = Option.value due ~default:t0 in
  {
    conn = 0;
    text;
    expect = None;
    timed = true;
    t_send = t0;
    rtt_us = (t1 -. t0) *. 1e6;
    lat_us = (t1 -. due) *. 1e6;
    late_us = Float.max 0.0 ((t0 -. due) *. 1e6);
    answer;
    phases;
    inserted = None;
  }

(* the closed-loop reader of one episode: [warmup] untimed statements,
   then [episode_reads] timed ones.  Read indices run on across
   episodes ([first] is this episode's first), so every episode sends
   other texts.  Half the reads of a traced run ask for the server's
   phases: the read streams repeat their kinds with period 8, so the
   traced half flips between blocks of 8 and each kind is split evenly
   between traced and untraced reads *)
let traced_read i = (i + (i / 8)) mod 2 = 0

let reader o (wl : Workload.t) c ~first ~start_writer =
  let out = ref [] in
  let one i ~timed =
    let r = wl.read i in
    let s = timed_request c ~traced:(o.trace && traced_read i) ~due:None r.text in
    out := { s with expect = Some r.expect; timed } :: !out
  in
  for i = first to first + wl.warmup - 1 do
    one i ~timed:false
  done;
  let t_start = now () in
  let finish = start_writer t_start in
  for i = first + wl.warmup to first + wl.warmup + wl.episode_reads - 1 do
    one i ~timed:true
  done;
  let t_end = now () in
  (t_start, t_end, List.rev !out, finish ())

(* the open-loop writer: statement k is due at [t_start + k / rate]; its
   latency runs from that due time, so a stall also counts against the
   statements queued behind it.  It sends until the reader is done *)
let writer o (wl : Workload.t) next c ~t_start ~stop =
  let rec go k acc =
    let due = t_start +. (float_of_int k /. wl.rate) in
    let n = now () in
    if n < due then Unix.sleepf (due -. n);
    if Atomic.get stop then List.rev acc
    else begin
      let (w : Workload.write) = next () in
      let s = timed_request c ~traced:o.trace ~due:(Some due) w.w_text in
      go (k + 1) ({ s with conn = 1; inserted = w.inserted } :: acc)
    end
  in
  go 0 []

(* host CPU ticks (steal, total) from /proc/stat: steal is time the
   hypervisor ran something else on this machine's processors *)
let cpu_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    let ticks =
      String.split_on_char ' ' line |> List.filter_map int_of_string_opt
    in
    (List.nth ticks 7, List.fold_left ( + ) 0 ticks)
  with Sys_error _ | End_of_file | Failure _ | Invalid_argument _ -> (0, 0)

(* the lines of a /proc file that start with [key], without the key *)
let proc_lines file key =
  try
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line when String.starts_with ~prefix:key line ->
            go (String.trim (String.sub line (String.length key) (String.length line - String.length key)) :: acc)
          | _ -> go acc
          | exception End_of_file -> List.rev acc
        in
        go [])
  with Sys_error _ -> []

(* the machine's processors, and the ones this run may use (run.py
   holds it to one; [Domain.recommended_domain_count] follows that) *)
let host_nproc () = List.length (proc_lines "/proc/cpuinfo" "processor")
let cpus_allowed () =
  match proc_lines "/proc/self/status" "Cpus_allowed_list:" with
  | l :: _ -> l
  | [] -> "unknown"

(* a fixed piece of CPU and allocation work, timed in ms: how fast the
   host runs plain OCaml code at that moment, independent of madql *)
let host_loop_ms () =
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 199_999 do
    Hashtbl.replace h (i land 4095) (string_of_int i)
  done;
  ignore (Sys.opaque_identity h);
  (now () -. t0) *. 1e3

(* --- Prometheus exposition ------------------------------------------------- *)

let prom text key =
  let prefix = key ^ " " in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           float_of_string_opt
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
         else None)
  |> Option.value ~default:0.0

(* --- one episode ------------------------------------------------------------ *)

(** One fresh server, driven through warm-up and a fixed count of timed
    reads.  A fixed count, not a time window: how far item 1's schema
    growth gets in an episode does not depend on the host's speed. *)
type episode = {
  t_start : float;
  t_end : float;
  reads : served list;  (** warm-up included, in send order *)
  writes : served list;  (** open-loop writer *)
  acknowledged : string list;  (** inserts the server acknowledged *)
  missing : int;  (** acknowledged inserts absent from the final read *)
  rss_mb : float;
  stats0 : string;  (** traced: exposition at the window start *)
  stats1 : string;  (** traced: exposition after the last statement *)
  data : string;  (** the server's data directory *)
  wal_bytes : int;  (** its WAL's size after the kill *)
  steal : int * int;  (** host CPU ticks during the window: steal, total *)
  host_ms : float;  (** [host_loop_ms] just before the episode *)
}

let count f l = List.fold_left (fun n x -> if f x then n + 1 else n) 0 l

let missing_from acknowledged seen =
  let h = Hashtbl.create 1024 in
  List.iter (fun n -> Hashtbl.replace h n ()) seen;
  count (fun n -> not (Hashtbl.mem h n)) acknowledged

let run_episode o (wl : Workload.t) ~index ~dump ~setups dir =
  let host_ms = host_loop_ms () in
  let data = Filename.concat dir (Printf.sprintf "data%d" index) in
  let log = Filename.concat dir (Printf.sprintf "serve%d.log" index) in
  let p, c, s = Proc.spawn ~madql:o.madql ~dump ~data ~log in
  Samples.add setups s;
  let stats0 = ref "" and steal0 = ref (0, 0) in
  let start_writer t_start =
    if o.trace then stats0 := Client.stats c;
    steal0 := cpu_ticks ();
    match wl.writer with
    | None -> fun () -> []
    | Some stream ->
      let wc = Proc.connect p.Proc.port in
      let stop = Atomic.make false in
      let next = stream index in
      (* a systhread, not a domain: the client stays one domain, so its
         minor collections need no stop-the-world handshake with the
         writer's *)
      let out = ref [] in
      let th = Thread.create (fun () -> out := writer o wl next wc ~t_start ~stop) () in
      fun () ->
        Atomic.set stop true;
        Thread.join th;
        Client.close ~quit:false wc;
        !out
  in
  let first = index * (wl.warmup + wl.episode_reads) in
  let t_start, t_end, reads, writes = reader o wl c ~first ~start_writer in
  let steal, total = cpu_ticks () in
  let acknowledged =
    List.filter_map
      (fun s -> match s.answer with Ok _ -> s.inserted | Error _ -> None)
      writes
  in
  let missing =
    match wl.inserted_type with
    | None -> 0
    | Some ty -> (
      match Client.query c (Workload.inserted_query ty) with
      | Ok a -> missing_from acknowledged (Workload.inserted_labels ty a)
      | Error _ -> 1 + List.length acknowledged)
  in
  let stats1 = if o.trace then Client.stats c else "" in
  let rss_mb = Proc.peak_rss_mb p in
  Client.close ~quit:false c;
  Proc.kill p;
  {
    t_start;
    t_end;
    reads;
    writes;
    acknowledged;
    missing;
    rss_mb;
    stats0 = !stats0;
    stats1;
    data;
    wal_bytes = file_size (Filename.concat data Mad_durable.Durable.wal_basename);
    steal = (steal - fst !steal0, total - snd !steal0);
    host_ms;
  }

(* --- metrics ---------------------------------------------------------------- *)

let samples_of f l =
  let s = Samples.create () in
  List.iter (fun x -> Samples.add s (f x)) l;
  s

let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let mean f l = ratio (sum f l) (float_of_int (List.length l))
let median f l = Samples.median (samples_of f l)
let phase name s = Option.value (List.assoc_opt name (Option.get s.phases)) ~default:0.0
let phase_sum s = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (Option.get s.phases)
let timed_reads e = List.filter (fun s -> s.timed) e.reads

type measured = {
  setups : Samples.t;
  episodes : episode list;  (** in run order *)
}

(* failed, refused, or a read whose answer lacks the expected atoms *)
let wrong wl s =
  match (s.answer, s.expect) with
  | Ok a, Some e -> Workload.labels wl a <> e
  | Ok _, None -> false
  | Error _, _ -> true

(* every read figure is computed per episode, and the run reports the
   median over its episodes: a burst of host noise (CPU steal on a
   shared machine) that slows a few episodes moves the median little,
   where it would own the tail of the pooled samples *)
let end_to_end_values m =
  let eps = m.episodes in
  let lat e = samples_of (fun s -> s.lat_us) (timed_reads e) in
  ( [
      ("setup_s", Samples.median m.setups);
      ("read_p50_us", median (fun e -> Samples.median (lat e)) eps);
      ("read_p99_us", median (fun e -> Samples.quantile (lat e) 0.99) eps);
      ("read_qps", median (fun e -> float_of_int (List.length (timed_reads e)) /. (e.t_end -. e.t_start)) eps);
      ("read_drift", median (fun e -> Samples.drift (lat e)) eps);
      ("server_peak_rss_mb", median (fun e -> e.rss_mb) eps);
    ],
    [ ("episodes", List.length eps); ("timed_reads", List.length (List.concat_map timed_reads eps));
      ("commits", List.length (List.concat_map (fun e -> e.writes) eps));
      ("setups", Samples.length m.setups) ] )

(* --- the traced run's layer numbers ----------------------------------------- *)

let layer_sum names (r : Replay.read) =
  List.fold_left
    (fun acc (n, v) -> if List.mem n names then acc +. v else acc)
    0.0 r.layer_us

(* replay every served statement of an episode in send order (the
   writer's by due time) on a fresh copy of the dump, as the server
   started from it *)
let replay_episode rp ~req e =
  Replay.restart rp;
  let types0 = Replay.atom_types rp in
  let ordered = List.stable_sort (fun a b -> compare a.t_send b.t_send) (e.reads @ e.writes) in
  let rs =
    List.concat_map
      (fun s ->
        incr req;
        if is_read s then [ (s, Replay.read rp ~conn:s.conn ~req:!req s.text) ]
        else begin
          Replay.write rp ~conn:s.conn ~req:!req s.text;
          []
        end)
      ordered
  in
  (types0, Replay.atom_types rp, rs)

(* compare the single-client workloads' answers with the replay's
   rendering, and aggregate the spans and the expositions' window
   deltas into layer metrics *)
let traced_values (wl : Workload.t) m ~dump ~spans ~recovery_s =
  let eps = m.episodes in
  let rp = Replay.create ~dump ~conns:(if wl.writer = None then 1 else 2) in
  let d0, r0 = Replay.snapshot_counters () in
  let req = ref 0 in
  let replayed = List.map (replay_episode rp ~req) eps in
  let d1, r1 = Replay.snapshot_counters () in
  Replay.save_spans rp spans;
  let rs = List.concat_map (fun (_, _, rs) -> rs) replayed in
  let mismatches =
    match wl.kind with
    | Workload.Mixed_geo -> 0 (* concurrent writes: order is not replayable *)
    | Workload.Select_geo | Workload.Explode_bom ->
      count
        (fun (s, (r : Replay.read)) ->
          match (s.answer, r.answer) with
          | Ok a, Ok b -> Workload.normalize a <> Workload.normalize b
          | Ok _, Error _ -> true
          | Error _, _ -> false)
        rs
  in
  let reads = List.concat_map (fun e -> e.reads) eps in
  let writes = List.concat_map (fun e -> e.writes) eps in
  let layer l = mean (fun (_, r) -> layer_sum [ l ] r) rs in
  let traced = List.filter (fun s -> s.phases <> None) (reads @ writes) in
  let traced_reads = List.filter (fun (s, _) -> s.phases <> None) rs in
  let exec = sum (fun (s, _) -> phase "exec" s) traced_reads in
  let covered = sum (fun (_, r) -> layer_sum Replay.covering r) traced_reads in
  let with_phases, without = List.partition (fun s -> s.phases <> None) (List.concat_map timed_reads eps) in
  let rtt l = median (fun s -> s.rtt_us) l in
  (* a counter's growth over the episodes' timed windows *)
  let delta key = sum (fun e -> prom e.stats1 key -. prom e.stats0 key) eps in
  let phase_mean p =
    let key s = Printf.sprintf "serve_phase_us_%s{phase=\"%s\"}" s p in
    ratio (delta (key "sum")) (delta (key "count"))
  in
  let commits = delta "serve_group_commits" in
  (* statements served between the two expositions of each episode *)
  let stmts =
    sum
      (fun e ->
        float_of_int (List.length (timed_reads e) + List.length e.writes)
        +. if wl.inserted_type = None then 0.0 else 1.0)
      eps
  in
  let served_bytes =
    List.filter_map (fun s -> match s.answer with Ok a -> Some (String.length a) | Error _ -> None) reads
  in
  let commit_lat = samples_of (fun s -> s.lat_us) writes in
  let types0, _, _ = List.hd replayed in
  ( List.map (fun l -> (l ^ "_us", layer l)) Replay.layers
    @ [
        ("kernel.delta_ratio", ratio (float_of_int (d1 - d0)) (float_of_int (d1 - d0 + r1 - r0)));
        ("core.atoms_visited", mean (fun (_, r) -> float_of_int r.Replay.atoms_visited) rs);
        ("core.links_traversed", mean (fun (_, r) -> float_of_int r.Replay.links_traversed) rs);
        ( "core.rows_per_visit",
          ratio (sum (fun (_, r) -> float_of_int r.Replay.rows) rs)
            (sum (fun (_, r) -> float_of_int r.Replay.atoms_visited) rs) );
        ("wire.response_bytes", mean float_of_int served_bytes);
        ("store.atom_types_start", float_of_int types0);
        ("store.atom_types_end", mean (fun (_, t1, _) -> float_of_int t1) replayed);
        ("store.epoch_per_read", mean (fun (_, r) -> float_of_int r.Replay.epoch_delta) rs);
        ("commit_p50_us", Samples.quantile commit_lat 0.5);
        ("commit_p99_us", Samples.quantile commit_lat 0.99);
        ("serve.queue_us", phase_mean "queue");
        ("serve.lock_us", mean (phase "lock") traced);
        ("serve.exec_us", mean (phase "exec") traced);
        ("serve.wal_us", mean (phase "wal") traced);
        ("serve.fsync_us", mean (phase "fsync") traced);
        ("serve.write_us", phase_mean "write");
        ("serve.other_us", mean (phase "other") traced);
        ("serve.lock_contended", delta "serve_lock_contended");
        ("client.wire_us", mean (fun s -> s.rtt_us -. phase_sum s) traced);
        ("durable.fsyncs_per_commit", ratio (delta "serve_group_fsyncs") commits);
        ("durable.wal_bytes_per_commit", ratio (sum (fun e -> float_of_int e.wal_bytes) eps) commits);
        ("durable.recovery_s", recovery_s);
        ("runtime.minor_words_per_stmt", ratio (delta "runtime_minor_words") stmts);
        ("runtime.major_collections", ratio (delta "runtime_gc_major_collections") (float_of_int (List.length eps)));
        ("loadgen.late_p99_us", Samples.quantile (samples_of (fun s -> s.late_us) writes) 0.99);
        ( "trace.overhead_pct",
          if without = [] then 0.0 else 100.0 *. (ratio (rtt with_phases) (rtt without) -. 1.0) );
        ("trace.unattributed_pct", 100.0 *. ratio (exec -. covered) exec);
      ],
    mismatches,
    [ ("replayed_reads", List.length rs); ("traced_requests", List.length traced) ] )

(* --- the run ------------------------------------------------------------------ *)

(* set-up is timed on every episode's server, and on [extra_setups]
   servers started and killed before the first, so the median has
   enough starts; episodes follow until [seconds] have passed *)
let extra_setups = 4

let measure o (wl : Workload.t) dir =
  let dump = Filename.concat dir "dump.mad" in
  Serialize.dump_file wl.db dump;
  let setups = Samples.create () in
  for k = 1 to extra_setups do
    let data = Filename.concat dir (Printf.sprintf "setup%d" k) in
    let log = Filename.concat dir (Printf.sprintf "setup%d.log" k) in
    let p, c, s = Proc.spawn ~madql:o.madql ~dump ~data ~log in
    Samples.add setups s;
    Client.close ~quit:false c;
    Proc.kill p
  done;
  let deadline = now () +. o.seconds in
  let rec go index acc =
    let e = run_episode o wl ~index ~dump ~setups dir in
    if now () < deadline then go (index + 1) (e :: acc) else List.rev (e :: acc)
  in
  let episodes = go 0 [] in
  ({ setups; episodes }, dump)

let json_num v = if Float.is_finite v then Printf.sprintf "%.15g" v else "0"

let stamp o (wl : Workload.t) m counts =
  let num n = Mad_obs.Json.Num (float_of_int n) in
  let steal = List.fold_left (fun (a, b) e -> (a + fst e.steal, b + snd e.steal)) (0, 0) m.episodes in
  Mad_obs.Json.(
    Obj
      [
        ("benchmark", Str "molbench");
        ("workload", Str wl.name);
        ("seed", num o.seed);
        ("held_out_seed", num held_out_seed);
        ("trace", Bool o.trace);
        ("smoke", Bool o.smoke);
        ("seconds", Num o.seconds);
        ("nproc", num (host_nproc ()));
        ("cpus_allowed", Str (cpus_allowed ()));
        ("ocaml", Str Sys.ocaml_version);
        ("commit", Str o.commit);
        ("server_flags", Str (String.concat " " ("serve -d DUMP --data DIR" :: Proc.flags)));
        ("fsync", Str Proc.fsync_policy);
        ("open_loop_rate", Num wl.rate);
        ("warmup_statements", num wl.warmup);
        ("episode_reads", num wl.episode_reads);
        ("distinct_reads", num wl.distinct_reads);
        ("sizes", Obj (List.map (fun (k, v) -> (k, num v)) wl.sizes));
        ("samples", Obj (List.map (fun (k, v) -> (k, num v)) counts));
        ("cpu_steal_pct", Num (100.0 *. ratio (float_of_int (fst steal)) (float_of_int (snd steal))));
        ("host_loop_ms", Num (median (fun e -> e.host_ms) m.episodes));
      ])

let report o wl m ~values ~counts ~attempted ~failed =
  let catalogue =
    if o.trace then per_layer
    else List.map (fun (n, u) -> (n, u, "")) end_to_end
  in
  print_endline ("molbench-stamp " ^ Mad_obs.Json.to_string (stamp o wl m counts));
  List.iter
    (fun (n, u, moves) ->
      Printf.printf "%-30s %18.4f %-6s %s\n" n (List.assoc n values) u
        (if moves = "" then "" else "-> " ^ moves))
    catalogue;
  let metrics =
    List.map
      (fun (n, u, _) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
          (json_num (List.assoc n values)) u)
      catalogue
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " metrics)

let run o (wl : Workload.t) dir =
  let m, dump = measure o wl dir in
  let statements = List.concat_map (fun e -> e.reads @ e.writes) m.episodes in
  (* every statement sent, plus each episode's final read of the
     inserted atoms *)
  let attempted =
    List.length statements
    + if wl.inserted_type = None then 0 else List.length m.episodes
  in
  let failed =
    count (wrong wl) statements + List.fold_left (fun n e -> n + e.missing) 0 m.episodes
  in
  let values, counts = end_to_end_values m in
  if not o.trace then report o wl m ~values ~counts ~attempted ~failed
  else begin
    (* the last episode's server was SIGKILLed: recover its data
       directory in-process and look for every acknowledged insert *)
    let last = List.nth m.episodes (List.length m.episodes - 1) in
    let t0 = now () in
    let h = Mad_durable.Durable.open_dir last.data in
    let recovery_s = now () -. t0 in
    let lost =
      match wl.inserted_type with
      | None -> 0
      | Some ty -> missing_from last.acknowledged (Workload.atom_labels ty (Mad_durable.Durable.db h))
    in
    Mad_durable.Durable.close h;
    let spans = Filename.concat work (Printf.sprintf "spans-%s.jsonl" wl.name) in
    let values, mismatches, tcounts = traced_values wl m ~dump ~spans ~recovery_s in
    let failed = failed + lost + mismatches in
    report o wl m
      ~values:(("error_rate", ratio (float_of_int failed) (float_of_int attempted)) :: values)
      ~counts:(counts @ tcounts @ [ ("lost_after_recovery", lost); ("replay_mismatches", mismatches) ])
      ~attempted ~failed
  end

let () =
  let o =
    try parse_args ()
    with Arg.Bad msg ->
      prerr_endline ("molbench: " ^ msg);
      exit 2
  in
  let wl = Workload.make o.kind ~smoke:o.smoke ~seed:o.seed in
  let dir =
    Filename.concat work (Printf.sprintf "%s-s%d-p%d" wl.name o.seed (Unix.getpid ()))
  in
  mkdir_p dir;
  (* however the run ends — result, error or signal — no server outlives
     it and its scratch directory goes *)
  at_exit (fun () ->
      Proc.kill_all ();
      rm_rf dir);
  let stop _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  try run o wl dir
  with e ->
    prerr_endline ("molbench: " ^ Printexc.to_string e);
    exit 1
