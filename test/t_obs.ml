(* The observability layer: registry get-or-create semantics, span
   nesting under a deterministic clock, JSON sink round-trips, and
   EXPLAIN ANALYZE's estimate-vs-actual wiring on the Fig. 1 brazil
   database. *)

open Workloads
module Obs = Mad_obs.Obs
module Registry = Mad_obs.Registry
module Metric = Mad_obs.Metric
module Span = Mad_obs.Span
module Sink = Mad_obs.Sink
module Json = Mad_obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)

let test_registry_get_or_create () =
  let reg = Registry.create () in
  let c = Registry.counter reg "requests" in
  Metric.incr c;
  Metric.add c 4;
  (* same (name, labels) -> same instrument *)
  let c' = Registry.counter reg "requests" in
  Metric.incr c';
  check_int "shared cell" 6 (Metric.value c);
  check_int "counter_value" 6 (Registry.counter_value reg "requests");
  check_int "absent counter reads 0" 0 (Registry.counter_value reg "nope")

let test_registry_labels_distinguish () =
  let reg = Registry.create () in
  let a = Registry.counter reg ~labels:[ ("node", "state") ] "derive.atoms" in
  let b = Registry.counter reg ~labels:[ ("node", "area") ] "derive.atoms" in
  Metric.add a 3;
  Metric.incr b;
  check_int "state" 3
    (Registry.counter_value reg ~labels:[ ("node", "state") ] "derive.atoms");
  check_int "area" 1
    (Registry.counter_value reg ~labels:[ ("node", "area") ] "derive.atoms");
  check_int "two samples" 2 (List.length (Registry.to_list reg))

let test_registry_kind_clash () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "x");
  check "kind clash rejected" true
    (match Registry.gauge reg "x" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_registry_reset () =
  let reg = Registry.create () in
  let c = Registry.counter reg "n" in
  let g = Registry.gauge reg "depth" in
  Metric.add c 7;
  Metric.set g 3.5;
  Registry.reset reg;
  check_int "counter reset" 0 (Metric.value c);
  check "gauge reset" true (Metric.get g = 0.0)

let test_histogram () =
  let reg = Registry.create () in
  let h = Registry.histogram reg ~bounds:[| 1.0; 10.0; 100.0 |] "lat" in
  List.iter (Metric.observe h) [ 0.5; 5.0; 50.0; 500.0 ];
  check "mean" true (abs_float (Metric.mean h -. 138.875) < 1e-6);
  let p50 = Option.get (Metric.quantile h 0.5) in
  check "median in second bucket" true (p50 <= 10.0 && p50 >= 1.0)

let test_histogram_stats () =
  let reg = Registry.create () in
  let h = Registry.histogram reg ~bounds:[| 10.0; 20.0; 50.0 |] "lat" in
  let qv h p = Option.get (Metric.quantile h p) in
  check "empty quantile is None" true (Metric.quantile h 0.5 = None);
  check "empty min/max are 0" true
    (Metric.min_value h = 0.0 && Metric.max_value h = 0.0);
  (* empty histograms render "-" instead of a non-finite quantile *)
  check "empty pp prints dash" true
    (let s = Format.asprintf "%a" Metric.pp (Metric.Histogram h) in
     contains s "p50=-");
  List.iter (Metric.observe h) [ 5.0; 15.0; 15.0; 100.0 ];
  check "min tracked" true (Metric.min_value h = 5.0);
  check "max tracked" true (Metric.max_value h = 100.0);
  check "sum tracked" true (Metric.sum h = 135.0);
  (* rank 2 of 4 lands mid-bucket (10, 20]: interpolates to exactly 15 *)
  check "median interpolated" true (abs_float (qv h 0.5 -. 15.0) < 1e-9);
  (* the top quantile reports the tracked maximum, not a bucket bound *)
  check "p100 is the tracked max" true (qv h 1.0 = 100.0);
  check "quantiles clamped to min" true (qv h 0.0 >= 5.0)

let test_expose_golden () =
  let reg = Registry.create () in
  Metric.add (Registry.counter reg ~labels:[ ("node", "state") ] "derive.atoms") 3;
  Metric.set (Registry.gauge reg "depth") 2.5;
  Metric.add (Registry.counter reg ~labels:[ ("q", "a\"b") ] "esc") 1;
  let h =
    Registry.histogram reg
      ~labels:[ ("op", "mql.statement") ]
      ~bounds:[| 1.0; 10.0 |] "op.latency_us"
  in
  List.iter (Metric.observe h) [ 0.5; 5.0; 100.0 ];
  check_str "prometheus text"
    "# TYPE derive_atoms counter\n\
     derive_atoms{node=\"state\"} 3\n\
     # TYPE depth gauge\n\
     depth 2.5\n\
     # TYPE esc counter\n\
     esc{q=\"a\\\"b\"} 1\n\
     # TYPE op_latency_us histogram\n\
     op_latency_us_bucket{op=\"mql.statement\",le=\"1\"} 1\n\
     op_latency_us_bucket{op=\"mql.statement\",le=\"10\"} 2\n\
     op_latency_us_bucket{op=\"mql.statement\",le=\"+Inf\"} 3\n\
     op_latency_us_sum{op=\"mql.statement\"} 105.5\n\
     op_latency_us_count{op=\"mql.statement\"} 3\n"
    (Registry.expose reg)

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

(* run [f] under a fake clock advancing [step] seconds per reading *)
let with_fake_clock step f =
  let saved = !Span.clock in
  let t = ref 0.0 in
  Span.clock :=
    (fun () ->
      let now = !t in
      t := now +. step;
      now);
  Fun.protect ~finally:(fun () -> Span.clock := saved) f

let capture_ctx () =
  let spans = ref [] in
  let sink = { Sink.noop with Sink.emit_span = (fun sp -> spans := sp :: !spans) } in
  (Obs.create ~tracing:true ~sink (), spans)

let test_span_nesting () =
  with_fake_clock 0.001 @@ fun () ->
  let obs, spans = capture_ctx () in
  let result =
    Obs.with_span obs "outer" ~attrs:[ ("q", Span.Str "v") ] @@ fun outer ->
    ignore (Obs.with_span obs "inner" (fun _ -> 1));
    Span.set outer "out" (Span.Int 42);
    "done"
  in
  check_str "value returned" "done" result;
  (* only the root emits, carrying the child *)
  check_int "one root span" 1 (List.length !spans);
  let root = List.hd !spans in
  check_str "root name" "outer" root.Span.name;
  check "root finished" true (Span.finished root);
  check_int "one child" 1 (List.length (Span.children root));
  check_str "child name" "inner" (List.hd (Span.children root)).Span.name;
  check "child shorter than root" true
    (Span.duration_ms (List.hd (Span.children root)) < Span.duration_ms root);
  check "attrs recorded" true
    (List.mem_assoc "q" (Span.attrs root)
    && List.assoc "out" (Span.attrs root) = Span.Int 42)

let test_span_noop () =
  let count = ref 0 in
  let sink = { Sink.noop with Sink.emit_span = (fun _ -> incr count) } in
  let obs = Obs.create ~tracing:false ~sink () in
  Obs.with_span obs "quiet" (fun sp ->
      check "noop span handed out" true (sp == Span.none);
      Span.set sp "ignored" (Span.Int 1));
  check_int "nothing emitted" 0 !count;
  Obs.with_span Obs.noop "also quiet" (fun sp ->
      check "shared noop context" true (sp == Span.none))

let test_span_exception_safe () =
  with_fake_clock 0.001 @@ fun () ->
  let obs, spans = capture_ctx () in
  (try Obs.with_span obs "boom" (fun _ -> failwith "expected") with
  | Failure _ -> ());
  check_int "span still emitted" 1 (List.length !spans);
  let root = List.hd !spans in
  check "error attribute" true (List.mem_assoc "error" (Span.attrs root));
  (* the stack unwound: a fresh root nests correctly again *)
  Obs.with_span obs "next" (fun _ -> ());
  check_int "fresh root" 2 (List.length !spans);
  check_str "not nested under boom" "next" (List.hd !spans).Span.name

(* ------------------------------------------------------------------ *)
(* Span sampling                                                        *)

let sampled_ctx ?slow_ms rate seed =
  let spans = ref [] in
  let sink =
    { Sink.noop with Sink.emit_span = (fun sp -> spans := sp :: !spans) }
  in
  (Obs.create ~tracing:true ~sink ~sample:rate ?slow_ms ~seed (), spans)

let run_roots obs n =
  for i = 1 to n do
    Obs.with_span obs (Printf.sprintf "s%d" i) (fun _ -> ())
  done

let kept spans = List.rev_map (fun (sp : Span.t) -> sp.Span.name) !spans

let test_sampling_deterministic () =
  let obs1, s1 = sampled_ctx 0.5 42 in
  let obs2, s2 = sampled_ctx 0.5 42 in
  run_roots obs1 40;
  run_roots obs2 40;
  let k1 = kept s1 and k2 = kept s2 in
  check "same seed keeps the same roots" true (k1 = k2);
  check "some kept" true (List.length k1 > 0);
  check "some dropped" true (List.length k1 < 40);
  let obs3, s3 = sampled_ctx 0.5 43 in
  run_roots obs3 40;
  check "a different seed draws differently" true (kept s3 <> k1)

let test_sampling_always_keeps_errors_and_slow () =
  let obs, spans = sampled_ctx 0.0 7 in
  run_roots obs 10;
  check_int "rate 0 drops everything" 0 (List.length !spans);
  (* an errored root beats the coin flip *)
  (try Obs.with_span obs "boom" (fun _ -> failwith "expected") with
  | Failure _ -> ());
  check_int "errored root still emitted" 1 (List.length !spans);
  check_str "errored root" "boom" (List.hd !spans).Span.name;
  (* and so does a root slower than the threshold: the fake clock makes
     every span take ~20 ms against a 10 ms threshold *)
  with_fake_clock 0.02 @@ fun () ->
  let obs, spans = sampled_ctx ~slow_ms:10.0 0.0 7 in
  Obs.with_span obs "slow" (fun _ -> ());
  check_int "slow root emitted" 1 (List.length !spans)

let test_sampling_metrics_stay_exact () =
  let obs, spans = sampled_ctx 0.0 7 in
  for _ = 1 to 5 do
    Obs.timed obs "work" (fun _ -> ())
  done;
  check_int "all spans dropped" 0 (List.length !spans);
  match
    Registry.find (Obs.registry obs) ~labels:[ ("op", "work") ] "op.latency_us"
  with
  | Some (Metric.Histogram h) ->
    check_int "histogram counted every run" 5 (Metric.count h)
  | _ -> Alcotest.fail "op.latency_us{op=work} histogram missing"

let test_timed_without_tracing () =
  let obs = Obs.create ~tracing:false () in
  let v =
    Obs.timed obs "op.x" (fun sp ->
        check "timed hands out the noop span" true (sp == Span.none);
        7)
  in
  check_int "value returned" 7 v;
  (match
     Registry.find (Obs.registry obs) ~labels:[ ("op", "op.x") ] "op.latency_us"
   with
  | Some (Metric.Histogram h) -> check_int "latency recorded" 1 (Metric.count h)
  | _ -> Alcotest.fail "op.latency_us{op=op.x} histogram missing");
  (* only the shared noop context skips the record entirely *)
  ignore (Obs.timed Obs.noop "noop.probe" (fun _ -> ()));
  check "noop context records nothing" true
    (Registry.find (Obs.registry Obs.noop)
       ~labels:[ ("op", "noop.probe") ]
       "op.latency_us"
    = None)

(* ------------------------------------------------------------------ *)
(* JSON sink round-trip                                                 *)

let parse_line line =
  match Json.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable sink line %S: %s" line e

let test_json_sink_roundtrip () =
  with_fake_clock 0.001 @@ fun () ->
  let lines = ref [] in
  let obs =
    Obs.create ~tracing:true
      ~sink:(Sink.json_lines (fun l -> lines := l :: !lines))
      ()
  in
  Obs.with_span obs "root" ~attrs:[ ("n", Span.Int 3) ] (fun _ ->
      Obs.with_span obs "child" (fun _ -> ()));
  Obs.event obs "bench" [ ("ns", Span.Float 12.5) ];
  Metric.add (Obs.counter obs "hits") 9;
  Obs.flush obs;
  let jsons = List.rev_map parse_line !lines in
  check "every line parses" true (List.length jsons >= 3);
  let span_json =
    List.find
      (fun j -> Json.member "kind" j = Some (Json.Str "span"))
      jsons
  in
  check "span name" true (Json.member "name" span_json = Some (Json.Str "root"));
  check "span attr" true
    (Option.bind (Json.member "attrs" span_json) (Json.member "n")
    = Some (Json.Num 3.0));
  check "span child present" true
    (match Json.member "children" span_json with
    | Some (Json.List [ c ]) -> Json.member "name" c = Some (Json.Str "child")
    | _ -> false);
  let event_json =
    List.find
      (fun j -> Json.member "kind" j = Some (Json.Str "bench"))
      jsons
  in
  check "event field" true (Json.member "ns" event_json = Some (Json.Num 12.5));
  let metric_json =
    List.find
      (fun j -> Json.member "name" j = Some (Json.Str "hits"))
      jsons
  in
  check "metric value" true
    (Json.member "value" metric_json = Some (Json.Num 9.0))

(* ------------------------------------------------------------------ *)
(* Estimate vs. actual on Fig. 1                                        *)

let brazil () =
  let b = Geo_brazil.build () in
  (b, Geo_brazil.db b)

let test_profile_actuals_match_ground_truth () =
  let b, db = brazil () in
  let desc = Geo_brazil.mt_state_desc b in
  let q = { Prima.Planner.name = "q"; desc; where = None; select = None } in
  let r = Prima.Profile.analyze db q in
  (* ground truth: a plain derivation with fresh counters *)
  let stats = Mad.Derive.stats () in
  let molecules = Mad.Derive.m_dom ~stats db desc in
  check_int "actual roots" (List.length molecules) r.Prima.Profile.actual_roots;
  check_int "actual atoms" (Mad.Derive.atoms_visited stats)
    r.Prima.Profile.actual_atoms;
  check_int "actual links" (Mad.Derive.links_traversed stats)
    r.Prima.Profile.actual_links;
  (* the per-node actuals partition the totals *)
  check_int "node atoms sum to total" r.Prima.Profile.actual_atoms
    (List.fold_left
       (fun acc nr -> acc + nr.Prima.Profile.nr_atoms)
       0 r.Prima.Profile.nodes);
  check_int "node links sum to total" r.Prima.Profile.actual_links
    (List.fold_left
       (fun acc nr -> acc + nr.Prima.Profile.nr_links)
       0 r.Prima.Profile.nodes);
  (* with uniform synthetic stats the estimator is exact on roots *)
  check "root estimate exact" true
    (int_of_float r.Prima.Profile.est.Prima.Stats.est_roots
    = r.Prima.Profile.actual_roots);
  (* one report per structure node *)
  check_int "one report per node" (List.length (Mad.Mdesc.nodes desc))
    (List.length r.Prima.Profile.nodes)

let test_explain_analyze_via_session () =
  Prima.Profile.install ();
  let _, db = brazil () in
  let session = Mad_mql.Session.create db in
  let report =
    Mad_mql.Session.run_to_string session
      "EXPLAIN ANALYZE SELECT ALL FROM state-area WHERE state.name = 'SP';"
  in
  let has_substr s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check "mentions estimates" true (has_substr report "est=");
  check "mentions actuals" true (has_substr report "actual=");
  check "per-node tree includes area" true (has_substr report "-[state-area]-");
  (* EXPLAIN (without ANALYZE) never executes *)
  let explained =
    Mad_mql.Session.run_to_string session
      "EXPLAIN SELECT ALL FROM state-area;"
  in
  check "plain explain shows algebra" true (has_substr explained "root state")

let has_substr s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* the full loop at the session layer: per-statement latency histograms
   land in the session's registry, repeated EXPLAIN ANALYZE runs refine
   the adaptive catalog, and both the report and the registry expose it *)
let test_adaptive_session () =
  Prima.Adaptive.install ();
  let _, db = brazil () in
  let obs = Obs.create ~tracing:true () in
  let session = Mad_mql.Session.create ~obs db in
  ignore (Mad_mql.Session.run_to_string session "SELECT ALL FROM state-area;");
  (match
     Registry.find (Obs.registry obs)
       ~labels:[ ("op", "mql.statement") ]
       "op.latency_us"
   with
  | Some (Metric.Histogram h) ->
    check "statement latency recorded" true (Metric.count h >= 1)
  | _ -> Alcotest.fail "op.latency_us{op=mql.statement} missing");
  check "exposition carries the latency histogram" true
    (has_substr (Registry.expose (Obs.registry obs)) "op_latency_us_bucket");
  let stmt = "EXPLAIN ANALYZE SELECT ALL FROM state-area-edge-point;" in
  let r1 = Mad_mql.Session.run_to_string session stmt in
  let r2 = Mad_mql.Session.run_to_string session stmt in
  check "adaptive section present" true (has_substr r1 "adaptive:");
  check "refinements counted across runs" true (has_substr r2 "2 run(s)");
  (match session.Mad_mql.Session.ext with
  | Some (Prima.Adaptive.Adaptive st) ->
    check_int "two refinements recorded" 2 st.Prima.Adaptive.refinements
  | _ -> Alcotest.fail "adaptive state missing from session");
  check "drift report renders" true
    (has_substr (Prima.Adaptive.report session) "refinement")

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                      *)

module Recorder = Mad_obs.Recorder

let test_recorder_ring_wrap () =
  let r = Recorder.create 8 in
  check_int "capacity rounds to a power of two" 8 (Recorder.capacity r);
  for i = 0 to 11 do
    ignore (Recorder.record r Recorder.Wal_append ~a:i ())
  done;
  check_int "cursor counts every event" 12 (Recorder.recorded r);
  let evs = Recorder.drain r in
  check_int "ring retains the newest window" 8 (List.length evs);
  let seqs = List.map (fun e -> e.Recorder.e_seq) evs in
  check "oldest first, newest last" true (seqs = [ 4; 5; 6; 7; 8; 9; 10; 11 ]);
  check "payloads line up with seqs" true
    (List.map (fun e -> e.Recorder.e_a) evs = seqs);
  (* disabling the global ring drops events without consuming seqs *)
  let g = Recorder.global () in
  let before = Recorder.recorded g in
  Recorder.set_enabled false;
  Recorder.note Recorder.Wal_append ~label:"t_obs.disabled" ();
  Recorder.set_enabled true;
  check_int "disabled ring records nothing" before (Recorder.recorded g)

(* the acceptance bar: concurrent recording from 4 domains loses no
   events when the ring is large enough for the burst — fetch_and_add
   hands every event its own slot *)
let test_recorder_concurrent_domains () =
  let per = 400 and doms = 4 in
  let r = Recorder.create 2048 in
  let worker k () =
    for i = 0 to per - 1 do
      ignore
        (Recorder.record r Recorder.Kernel_chunk
           ~label:(Printf.sprintf "d%d" k)
           ~a:i ())
    done
  in
  let ds = List.init doms (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join ds;
  check_int "every event recorded" (per * doms) (Recorder.recorded r);
  let evs = Recorder.drain r in
  check_int "no event lost" (per * doms) (List.length evs);
  let seqs = List.map (fun e -> e.Recorder.e_seq) evs in
  check_int "seqs all distinct" (per * doms)
    (List.length (List.sort_uniq compare seqs));
  List.iter
    (fun k ->
      let lbl = Printf.sprintf "d%d" k in
      check_int (lbl ^ " complete") per
        (List.length (List.filter (fun e -> e.Recorder.e_label = lbl) evs)))
    (List.init doms Fun.id)

let test_recorder_chrome_export () =
  with_fake_clock 0.001 @@ fun () ->
  let r = Recorder.create 64 in
  ignore (Recorder.record r Recorder.Span_begin ~label:"prima.plan" ());
  ignore
    (Recorder.record r Recorder.Span_end ~label:"mql.statement"
       ~dur_ns:500_000 ~a:0 ());
  ignore (Recorder.record r Recorder.Wal_append ~label:"wal.log" ~a:32 ());
  ignore
    (Recorder.record r Recorder.Wal_fsync ~label:"wal.log" ~dur_ns:2_000_000 ());
  ignore
    (Recorder.record r Recorder.Kernel_run ~label:"part" ~a:10 ~b:3
       ~dur_ns:1_000_000 ());
  ignore
    (Recorder.record r Recorder.Snapshot_build ~label:"composition" ~a:100
       ~b:400 ());
  let text = Json.to_string (Recorder.to_chrome r) in
  let parsed =
    match Json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  let events =
    match Json.member "traceEvents" parsed with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let names =
    List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_str)
      events
  in
  List.iter
    (fun n -> check ("event " ^ n) true (List.mem n names))
    [ "mql.statement"; "wal.append"; "wal.fsync"; "kernel.run";
      "snapshot.build"; "prima.plan"; "thread_name" ];
  (* the WAL and the planner get their own named tracks *)
  let thread_names =
    List.filter_map
      (fun e ->
        if Json.member "name" e = Some (Json.Str "thread_name") then
          Option.bind (Json.member "args" e) (fun a ->
              Option.bind (Json.member "name" a) Json.to_str)
        else None)
      events
  in
  check "wal track" true (List.mem "wal" thread_names);
  check "planner track" true (List.mem "planner" thread_names);
  (* events with a duration export as complete ("X") slices in µs *)
  let fsync =
    List.find (fun e -> Json.member "name" e = Some (Json.Str "wal.fsync")) events
  in
  check "fsync is a complete event" true
    (Json.member "ph" fsync = Some (Json.Str "X"));
  check "fsync duration in us" true
    (Json.member "dur" fsync = Some (Json.Num 2000.0))

(* spans journal to the global ring even on a non-tracing context —
   the "always on" half of the flight-recorder contract *)
let test_recorder_span_journal () =
  Recorder.set_enabled true;
  let g = Recorder.global () in
  let obs = Obs.create ~tracing:false () in
  Obs.with_span obs "t_obs.journal" (fun _ -> ());
  (try Obs.with_span obs "t_obs.journal_err" (fun _ -> failwith "expected")
   with Failure _ -> ());
  let evs = Recorder.drain g in
  let ends l =
    List.filter
      (fun e ->
        e.Recorder.e_kind = Recorder.Span_end && e.Recorder.e_label = l)
      evs
  in
  check_int "untraced span journaled" 1 (List.length (ends "t_obs.journal"));
  (match ends "t_obs.journal_err" with
   | [ e ] -> check "error flagged on the end event" true (e.Recorder.e_b = 1)
   | _ -> Alcotest.fail "errored span not journaled");
  check "noop journals nothing" true
    (Obs.with_span Obs.noop "t_obs.noop_probe" (fun _ -> ());
     List.for_all
       (fun e -> e.Recorder.e_label <> "t_obs.noop_probe")
       (Recorder.drain g))

(* the integration bar: driving the durable engine and the kernel puts
   span, WAL, group-commit, kernel-run, snapshot-build and
   recovery-replay events into the one global ring, and the dumped
   Chrome trace parses *)
let test_recorder_engine_events () =
  Recorder.set_enabled true;
  let g = Recorder.global () in
  (* kernel + snapshot: BOM part explosion through the closure kernel *)
  let bom = Workloads.Bom_gen.build Workloads.Bom_gen.default in
  let kdb = bom.Workloads.Bom_gen.db in
  let d =
    Mad_recursive.Recursive.v kdb ~root_type:"part" ~link:"composition" ()
  in
  ignore (Mad_recursive.Recursive.m_dom kdb d);
  (* durable: journal + group commit, close, reopen (replay) *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "t_obs_recorder"
  in
  Mad_durable.Harness.rm_rf dir;
  Fun.protect
    ~finally:(fun () -> Mad_durable.Harness.rm_rf dir)
    (fun () ->
      let _, db = brazil () in
      let h = Mad_durable.Durable.open_dir ~seed:db dir in
      let session =
        Mad_mql.Session.create
          ~obs:(Obs.create ~tracing:false ())
          (Mad_durable.Durable.db h)
      in
      ignore
        (Mad_mql.Session.add_on_commit session (fun () ->
             Mad_durable.Durable.commit h));
      ignore
        (Mad_mql.Session.run session
           "INSERT INTO city VALUES ('Trace City', 3);");
      Mad_durable.Durable.close h;
      let h2 = Mad_durable.Durable.open_dir dir in
      check "reopen replays the insert" true
        ((Mad_durable.Durable.recovery h2).Mad_durable.Durable.replayed_records
        >= 1);
      Mad_durable.Durable.close h2);
  let evs = Recorder.drain g in
  let has k = List.exists (fun e -> e.Recorder.e_kind = k) evs in
  List.iter
    (fun (k, name) -> check name true (has k))
    [
      (Recorder.Span_end, "span event present");
      (Recorder.Wal_append, "wal append present");
      (Recorder.Wal_fsync, "wal fsync present");
      (Recorder.Group_commit, "group commit present");
      (Recorder.Kernel_run, "kernel run present");
      (Recorder.Snapshot_build, "snapshot build present");
      (Recorder.Recovery_replay, "recovery replay present");
    ];
  let trace = Filename.temp_file "t_obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      Recorder.dump g trace;
      let ic = open_in trace in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> In_channel.input_all ic)
      in
      match Json.of_string text with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "dumped trace does not parse: %s" e)

(* ------------------------------------------------------------------ *)
(* Domain-safe gauges, exemplars, exposition escaping                   *)

let test_gauge_domain_safe () =
  let g = Metric.gauge "pool.busy_us" in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Metric.add_gauge g 1.0
            done))
  in
  List.iter Domain.join ds;
  check "40000 concurrent adds survive" true (Metric.get g = 40000.0);
  Metric.set g 2.0;
  check "set still wins" true (Metric.get g = 2.0)

let test_exemplars () =
  let reg = Registry.create () in
  let h = Registry.histogram reg ~bounds:[| 1.0; 10.0 |] "lat" in
  Metric.observe h 0.5 (* no exemplar *);
  Metric.observe ~exemplar:42 h 5.0;
  Metric.observe ~exemplar:99 h 7.0 (* same bucket: last writer wins *);
  Metric.observe ~exemplar:7 h 100.0 (* overflow bucket *);
  check_int "bucket exemplar overwritten" 99 (Metric.exemplar_seq h 1);
  check "exemplar value kept" true (Metric.exemplar_value h 1 = 7.0);
  check_int "no exemplar where none landed" (-1) (Metric.exemplar_seq h 0);
  let text = Registry.expose reg in
  check "bucket line carries its exemplar" true
    (contains text "lat_bucket{le=\"10\"} 3 # {span_seq=\"99\"} 7");
  check "+Inf bucket too" true
    (contains text "lat_bucket{le=\"+Inf\"} 4 # {span_seq=\"7\"} 100");
  Registry.reset reg;
  check "reset clears exemplars" true
    (not (contains (Registry.expose reg) "span_seq"));
  (* the timed path wires the span's recorder seq in automatically *)
  Recorder.set_enabled true;
  let obs = Obs.create ~tracing:true () in
  Obs.timed obs "probe" (fun _ -> ());
  check "timed observation carries an exemplar" true
    (contains (Registry.expose (Obs.registry obs)) "# {span_seq=")

let test_prom_escaping () =
  let reg = Registry.create () in
  Metric.incr (Registry.counter reg ~labels:[ ("q", "a\"b\\c\nd") ] "esc.full");
  Metric.set (Registry.gauge reg ~labels:[ ("p", "x\\\"y") ] "esc.g") 1.0;
  let text = Registry.expose reg in
  check "quote, backslash and newline escaped" true
    (contains text "esc_full{q=\"a\\\"b\\\\c\\nd\"} 1");
  check "adjacent backslash-quote escaped" true
    (contains text "esc_g{p=\"x\\\\\\\"y\"} 1")

(* MAD_OBS_SAMPLE=0.0 / =1.0 edge cases ([create ~sample] is the same
   code path as the env knob), each with an errored root span *)
let test_sampling_rate_edges () =
  let obs, spans = sampled_ctx 1.0 7 in
  run_roots obs 40;
  check_int "rate 1 keeps everything" 40 (List.length !spans);
  (try Obs.with_span obs "boom" (fun _ -> failwith "expected")
   with Failure _ -> ());
  check_int "errored root emitted exactly once" 41 (List.length !spans);
  let obs0, spans0 = sampled_ctx 0.0 7 in
  run_roots obs0 40;
  (try Obs.with_span obs0 "boom" (fun _ -> failwith "expected")
   with Failure _ -> ());
  check_int "rate 0 keeps only the error" 1 (List.length !spans0);
  check_str "the survivor is the errored root" "boom"
    (List.hd !spans0).Span.name

(* drain and Chrome export racing a ring that wraps under a concurrent
   writer: readers must never see a torn or malformed event, only a
   consistent (possibly shorter) window *)
let test_recorder_drain_races_wrap () =
  let r = Recorder.create 64 in
  let total = 20_000 in
  let writer () =
    for i = 0 to total - 1 do
      ignore
        (Recorder.record r Recorder.Kernel_chunk ~label:"race" ~a:i
           ~dur_ns:(i * 3) ())
    done
  in
  let d = Domain.spawn writer in
  for _ = 1 to 200 do
    let evs = Recorder.drain r in
    check "window within capacity" true
      (List.length evs <= Recorder.capacity r);
    List.iter
      (fun e ->
        check "event intact" true
          (e.Recorder.e_seq >= 0
          && e.Recorder.e_kind = Recorder.Kernel_chunk
          && String.equal e.Recorder.e_label "race"
          && e.Recorder.e_dur_ns = e.Recorder.e_a * 3))
      evs;
    (* seqs strictly increasing inside one drained window *)
    let rec mono = function
      | a :: (b :: _ as rest) ->
        check "drain ordered" true (a.Recorder.e_seq < b.Recorder.e_seq);
        mono rest
      | _ -> ()
    in
    mono evs;
    (* the export path runs the same snapshot logic *)
    ignore (Json.to_string (Recorder.to_chrome r))
  done;
  Domain.join d;
  check_int "no event lost by the writer" total (Recorder.recorded r);
  check "final drain full" true (List.length (Recorder.drain r) > 0)

(* satellite of the digest PR: with the ring disabled, [expose] must
   not render exemplars at all — the stored seqs go stale the moment
   no new ones are issued *)
let test_expose_exemplars_gated_on_ring () =
  Recorder.set_enabled true;
  let obs = Obs.create ~tracing:true () in
  Obs.timed obs "probe" (fun _ -> ());
  let text = Registry.expose (Obs.registry obs) in
  check "ring on: exemplar rendered" true (contains text "# {span_seq=");
  Recorder.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Recorder.set_enabled true)
    (fun () ->
      let text = Registry.expose (Obs.registry obs) in
      check "ring off: no exemplars rendered" true
        (not (contains text "span_seq")))

(* ------------------------------------------------------------------ *)
(* Side-state files                                                     *)

module State_file = Mad_obs.State_file

(* any strings, as fields of any records, survive an atomic save and a
   load; a completed save leaves no temporary file behind *)
let prop_state_file_roundtrip =
  let field =
    QCheck.Gen.(
      oneof
        [
          oneofl [ ""; "-"; " "; "%"; "\n"; ","; "="; "%2D"; "a b"; "\r\t" ];
          string;
          string_printable;
        ])
  in
  let records =
    QCheck.Gen.(list_size (int_bound 4) (list_size (int_bound 5) field))
  in
  QCheck.Test.make ~count:100 ~name:"state file round-trips any strings"
    (QCheck.make records ~print:QCheck.Print.(list (list string)))
    (fun records ->
      let sf = { State_file.kind = "prop"; version = 3 } in
      let dir = Filename.temp_dir "t_obs_state" "" in
      let path = State_file.path dir sf in
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove path with Sys_error _ -> ());
          Sys.rmdir dir)
        (fun () ->
          let encoded =
            List.map (fun r -> "r" :: List.map State_file.encode r) records
          in
          let unsafe c = c = ' ' || c = '\n' || c = ',' || c = '=' in
          List.iter
            (List.iter (fun tok ->
                 if tok = "" || String.exists unsafe tok then
                   QCheck.Test.fail_reportf "unsafe token %S" tok))
            encoded;
          State_file.save sf dir encoded;
          let back = ref [] in
          let loaded =
            State_file.load sf dir (fun rs ->
                back :=
                  List.map (fun r -> List.map State_file.decode (List.tl r)) rs;
                0)
          in
          loaded && !back = records && not (Sys.file_exists (path ^ ".tmp"))))

let suite =
  [
    Alcotest.test_case "registry get-or-create" `Quick test_registry_get_or_create;
    Alcotest.test_case "registry labels" `Quick test_registry_labels_distinguish;
    Alcotest.test_case "registry kind clash" `Quick test_registry_kind_clash;
    Alcotest.test_case "registry reset" `Quick test_registry_reset;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram stats and quantiles" `Quick
      test_histogram_stats;
    Alcotest.test_case "prometheus exposition" `Quick test_expose_golden;
    Alcotest.test_case "sampling is deterministic" `Quick
      test_sampling_deterministic;
    Alcotest.test_case "sampling keeps errors and slow roots" `Quick
      test_sampling_always_keeps_errors_and_slow;
    Alcotest.test_case "sampling leaves metrics exact" `Quick
      test_sampling_metrics_stay_exact;
    Alcotest.test_case "timed without tracing" `Quick
      test_timed_without_tracing;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span noop" `Quick test_span_noop;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "json sink round-trip" `Quick test_json_sink_roundtrip;
    Alcotest.test_case "profile estimate vs actual" `Quick
      test_profile_actuals_match_ground_truth;
    Alcotest.test_case "explain analyze via session" `Quick
      test_explain_analyze_via_session;
    Alcotest.test_case "adaptive session loop" `Quick test_adaptive_session;
    Alcotest.test_case "recorder ring wrap" `Quick test_recorder_ring_wrap;
    Alcotest.test_case "recorder concurrent domains" `Quick
      test_recorder_concurrent_domains;
    Alcotest.test_case "recorder drain races wrap" `Quick
      test_recorder_drain_races_wrap;
    Alcotest.test_case "expose exemplars gated on ring" `Quick
      test_expose_exemplars_gated_on_ring;
    Alcotest.test_case "recorder chrome export" `Quick
      test_recorder_chrome_export;
    Alcotest.test_case "recorder span journal" `Quick
      test_recorder_span_journal;
    Alcotest.test_case "recorder engine events" `Quick
      test_recorder_engine_events;
    Alcotest.test_case "gauge domain safety" `Quick test_gauge_domain_safe;
    Alcotest.test_case "histogram exemplars" `Quick test_exemplars;
    Alcotest.test_case "prometheus escaping" `Quick test_prom_escaping;
    Alcotest.test_case "sampling rate edges" `Quick test_sampling_rate_edges;
    QCheck_alcotest.to_alcotest prop_state_file_roundtrip;
  ]
