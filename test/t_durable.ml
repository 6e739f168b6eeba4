(* The durability engine: WAL framing and torn tails, logical record
   codec, recovery (snapshot + replay + integrity), snapshot rolling,
   fault injection, catalog persistence, and the crash-recovery
   property (every crash point of a seeded workload converges). *)

open Mad_store
open Mad_durable

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* every test works in its own throwaway directory *)
let in_tmp name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("t_durable_" ^ name)
  in
  Harness.rm_rf dir;
  Fun.protect ~finally:(fun () -> Harness.rm_rf dir) (fun () -> f dir)

let wal_file dir =
  Unix.mkdir dir 0o755;
  Filename.concat dir Durable.wal_basename

(* --- WAL framing ---------------------------------------------------- *)

let test_wal_roundtrip () =
  in_tmp "roundtrip" @@ fun dir ->
  let path = wal_file dir in
  let payloads = [ "alpha"; ""; "two words"; String.make 300 'x' ] in
  let obs = Mad_obs.Obs.create () in
  let w = Wal.create ~obs ~truncate:true path in
  List.iter (Wal.append w) payloads;
  check_int "writer count" (List.length payloads) (Wal.records w);
  Wal.close w;
  let got, tail = Wal.read path in
  Alcotest.(check (list string)) "payloads survive" payloads got;
  check "clean tail" true (tail = Wal.Clean);
  let bytes =
    List.fold_left (fun n p -> n + Wal.header_bytes + String.length p) 0 payloads
  in
  check_int "wal.append_bytes counts frames" bytes
    (Mad_obs.Metric.value (Mad_obs.Obs.counter obs "wal.append_bytes"));
  (* appending to an existing log keeps the prefix *)
  let w2 = Wal.create ~truncate:false path in
  Wal.append w2 "tail";
  Wal.close w2;
  let got2, _ = Wal.read path in
  Alcotest.(check (list string)) "append mode" (payloads @ [ "tail" ]) got2

let test_wal_torn_tail () =
  in_tmp "torn" @@ fun dir ->
  let path = wal_file dir in
  let w = Wal.create ~truncate:true path in
  List.iter (Wal.append w) [ "one"; "two"; "three" ];
  Wal.close w;
  (* tear the last record: drop its final byte *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 1);
  Unix.close fd;
  let got, tail = Wal.read path in
  Alcotest.(check (list string)) "durable prefix" [ "one"; "two" ] got;
  (match tail with
   | Wal.Torn { bytes_dropped } ->
     check_int "dropped the torn frame" (Wal.header_bytes + 5 - 1) bytes_dropped
   | Wal.Clean -> Alcotest.fail "expected a torn tail");
  (* a lone partial header is also just a torn tail *)
  let oc = open_out_bin path in
  output_string oc "abc";
  close_out oc;
  let got, tail = Wal.read path in
  check_int "no records" 0 (List.length got);
  check "short header torn" true (tail <> Wal.Clean)

let test_wal_corrupt_record () =
  in_tmp "corrupt" @@ fun dir ->
  let path = wal_file dir in
  let w = Wal.create ~truncate:true path in
  List.iter (Wal.append w) [ "one"; "two"; "three" ];
  Wal.close w;
  (* flip a payload byte of the middle record: scanning must stop
     before it, even though the last record is intact *)
  let off = (2 * Wal.header_bytes) + 3 + 1 in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write_substring fd "X" 0 1);
  Unix.close fd;
  let got, tail = Wal.read path in
  Alcotest.(check (list string)) "stops at the bad checksum" [ "one" ] got;
  check "torn" true (tail <> Wal.Clean)

(* --- the logical record codec ---------------------------------------- *)

let test_logrec_roundtrip () =
  let db = Harness.seed_db () in
  let ops = ref [] in
  Database.set_journal db (Some (fun op -> ops := op :: !ops));
  let a =
    Database.insert_atom db ~atype:"part"
      [
        Value.String "it's 'quoted'";
        Value.Int (-3);
        Value.List [ Value.Int 1; Value.Int 2 ];
      ]
  in
  let b = List.hd (Database.atoms db "box") in
  Database.add_link db "in" ~left:b.Atom.id ~right:a.Atom.id;
  Database.set_attribute db ~atype:"part" a.Atom.id ~index:1 (Value.Int 9);
  Database.remove_link db "in" ~left:b.Atom.id ~right:a.Atom.id;
  Database.delete_atom db a.Atom.id;
  ignore
    (Database.declare_atom_type db "extra" [ Schema.Attr.v "n" Domain.Int ]);
  Database.drop_atom_type db "extra";
  Database.set_journal db None;
  check "all kinds journaled" true (List.length !ops >= 7);
  List.iter
    (fun op ->
      let payload = Logrec.encode op in
      check_string
        ("round-trip of " ^ payload)
        payload
        (Logrec.encode (Logrec.decode ~recno:1 payload)))
    !ops;
  (* a damaged payload names its record *)
  match Logrec.decode ~recno:7 "frobnicate x" with
  | _ -> Alcotest.fail "expected decode failure"
  | exception Err.Mad_error msg ->
    check "names the record" true (contains ~affix:"record 7" msg)

(* --- recovery -------------------------------------------------------- *)

(* a short straight-line workload driven through the public mutators
   and the Manipulate layer (cascading delete is one logical record) *)
let mutate db =
  let part v w =
    (Database.insert_atom db ~atype:"part"
       [ Value.String v; Value.Int w; Value.List [] ])
      .Atom.id
  in
  let p1 = part "wheel" 4 and p2 = part "axle" 2 in
  let box = (List.hd (Database.atoms db "box")).Atom.id in
  Database.add_link db "in" ~left:box ~right:p1;
  Database.set_attribute db ~atype:"part" p1 ~index:1 (Value.Int 5);
  let linked =
    Mad.Manipulate.insert_atom_linked db ~atype:"part"
      [ Value.String "rim"; Value.Int 1; Value.List [ Value.Int 8 ] ]
      ~links:[ ("in", box) ]
  in
  Database.delete_atom db p2;
  Database.delete_atom db linked.Atom.id (* cascades over the link *)

let test_reopen_replays () =
  in_tmp "reopen" @@ fun dir ->
  let h = Durable.open_or_seed ~seed:Harness.seed_db dir in
  check "fresh dir got a snapshot" true
    (Sys.file_exists (Filename.concat dir Durable.snapshot_basename));
  mutate (Durable.db h);
  let written = Durable.wal_records h in
  check "journaled" true (written > 0);
  let want = Serialize.dump (Durable.db h) in
  Durable.close h;
  let obs = Mad_obs.Obs.create () in
  let h2 = Durable.open_dir ~obs dir in
  let r = Durable.recovery h2 in
  check "snapshot loaded" true r.Durable.snapshot_loaded;
  check_int "all records replayed" written r.Durable.replayed_records;
  check_int "clean tail" 0 r.Durable.torn_tail_bytes;
  check_int "metric recovery.replayed_records" written
    (Mad_obs.Metric.value
       (Mad_obs.Obs.counter obs "recovery.replayed_records"));
  check_string "recovered state" want (Serialize.dump (Durable.db h2));
  check "recovered db valid" true (Integrity.is_valid (Durable.db h2));
  Durable.close h2

let test_torn_final_record_skipped () =
  in_tmp "torn-skip" @@ fun dir ->
  let h = Durable.open_or_seed ~seed:Harness.seed_db dir in
  mutate (Durable.db h);
  let written = Durable.wal_records h in
  let want = Serialize.dump (Durable.db h) in
  Durable.close h;
  (* a crash mid-append: garbage after the last whole record *)
  let oc =
    open_out_gen
      [ Open_wronly; Open_append; Open_binary ]
      0o644
      (Filename.concat dir Durable.wal_basename)
  in
  output_string oc "\x40\x00\x00\x00 half a frame";
  close_out oc;
  let h2 = Durable.open_dir dir in
  let r = Durable.recovery h2 in
  check "torn tail detected" true (r.Durable.torn_tail_bytes > 0);
  check_int "durable records replayed" written r.Durable.replayed_records;
  check_string "torn tail dropped, state intact" want
    (Serialize.dump (Durable.db h2));
  Durable.close h2;
  (* recovery rewrote the log to its durable prefix *)
  let h3 = Durable.open_dir dir in
  check_int "log healed" 0 (Durable.recovery h3).Durable.torn_tail_bytes;
  check_int "same records" written
    (Durable.recovery h3).Durable.replayed_records;
  Durable.close h3

let test_snapshot_truncates () =
  in_tmp "snapshot" @@ fun dir ->
  let h = Durable.open_or_seed ~seed:Harness.seed_db dir in
  mutate (Durable.db h);
  let want = Serialize.dump (Durable.db h) in
  Durable.snapshot h;
  check_int "log truncated" 0 (Durable.wal_records h);
  Durable.close h;
  let h2 = Durable.open_dir dir in
  check_int "nothing to replay" 0 (Durable.recovery h2).Durable.replayed_records;
  check_string "snapshot carries the state" want
    (Serialize.dump (Durable.db h2));
  Durable.close h2

let test_snapshot_every () =
  in_tmp "snapshot-every" @@ fun dir ->
  let h = Durable.open_or_seed ~snapshot_every:3 ~seed:Harness.seed_db dir in
  let db = Durable.db h in
  for i = 1 to 7 do
    ignore
      (Database.insert_atom db ~atype:"part"
         [ Value.String (Printf.sprintf "p%d" i); Value.Int i; Value.List [] ])
  done;
  (* 7 inserts with a roll at every 3rd record: 1 left in the log *)
  check_int "auto-rolled" 1 (Durable.wal_records h);
  let want = Serialize.dump db in
  Durable.close h;
  let h2 = Durable.open_dir dir in
  check_int "replays only the tail" 1
    (Durable.recovery h2).Durable.replayed_records;
  check_string "converged" want (Serialize.dump (Durable.db h2));
  Durable.close h2

(* --- fault injection -------------------------------------------------- *)

let test_fail_append_is_clean () =
  in_tmp "fail-append" @@ fun dir ->
  let faults = Faults.create ~after:2 Faults.Fail_append in
  let h = Durable.open_or_seed ~faults ~seed:Harness.seed_db dir in
  let db = Durable.db h in
  let ins name =
    ignore
      (Database.insert_atom db ~atype:"part"
         [ Value.String name; Value.Int 1; Value.List [] ])
  in
  ins "a";
  ins "b";
  (* the third append fails cleanly: Mad_error, process survives *)
  (match ins "c" with
   | () -> Alcotest.fail "expected an injected append failure"
   | exception Err.Mad_error msg ->
     check "names the log" true (contains ~affix:Durable.wal_basename msg));
  check "plan fired" true (Faults.fired faults);
  ins "d" (* the plan fires once; later appends succeed *);
  Durable.close h;
  (* the un-logged mutation is simply not durable *)
  let h2 = Durable.open_dir dir in
  check_int "two records before, one after the failure" 3
    (Durable.recovery h2).Durable.replayed_records;
  let names =
    List.map
      (fun (a : Atom.t) ->
        match a.Atom.values.(0) with Value.String s -> s | _ -> "?")
      (Database.atoms (Durable.db h2) "part")
  in
  check "survivors logged" true
    (List.mem "a" names && List.mem "b" names && List.mem "d" names);
  check "failed append lost" false (List.mem "c" names);
  Durable.close h2

let test_crash_property seed =
  in_tmp (Printf.sprintf "harness-%d" seed) @@ fun dir ->
  let r = Harness.run ~seed ~ops:15 ~dir () in
  check "converged" true (Harness.converged r);
  check_int "every crash point plus the clean run"
    ((2 * r.Harness.records) + 1)
    r.Harness.scenarios;
  check "torn tails exercised" true (r.Harness.torn_recoveries > 0)

(* --- damaged state names its file ------------------------------------ *)

let test_recovery_errors_name_files () =
  in_tmp "damage" @@ fun dir ->
  let h = Durable.open_or_seed ~seed:Harness.seed_db dir in
  mutate (Durable.db h);
  Durable.close h;
  (* a whole, checksummed record whose payload is garbage is
     corruption, not a torn tail: recovery must refuse and say where *)
  let w =
    Wal.create ~truncate:false (Filename.concat dir Durable.wal_basename)
  in
  Wal.append w "frobnicate x";
  Wal.close w;
  (match Durable.open_dir dir with
   | _ -> Alcotest.fail "expected recovery failure on a corrupt record"
   | exception Err.Mad_error msg ->
     check "names wal.log" true (contains ~affix:Durable.wal_basename msg));
  (* a damaged snapshot is named too *)
  let oc = open_out (Filename.concat dir Durable.snapshot_basename) in
  output_string oc "frobnicate x y\n";
  close_out oc;
  match Durable.open_dir dir with
  | _ -> Alcotest.fail "expected recovery failure on a corrupt snapshot"
  | exception Err.Mad_error msg ->
    check "names snapshot.mad" true
      (contains ~affix:Durable.snapshot_basename msg)

(* --- queries never journal ------------------------------------------- *)

(* Query evaluation never writes to the session's database — the
   operators return result sets, and a statement with X runs in its own
   copy — so nothing a query does can reach the WAL. *)
let test_queries_do_not_journal () =
  in_tmp "query-nolog" @@ fun dir ->
  let h = Durable.open_or_seed ~seed:Harness.seed_db dir in
  let before = Durable.wal_records h in
  let session = Mad_mql.Session.create (Durable.db h) in
  ignore
    (Mad_mql.Session.add_on_commit session (fun () -> Durable.commit h));
  ignore (Mad_mql.Session.run_to_string session "SELECT ALL FROM box-part;");
  ignore
    (Mad_mql.Session.run_to_string session
       "SELECT ALL FROM box-part WHERE part.weight >= 2;");
  check_int "queries journaled nothing" before (Durable.wal_records h);
  (* DML through the same session still journals *)
  ignore
    (Mad_mql.Session.run_to_string session "INSERT INTO box VALUES ('s', 1);");
  check_int "DML journaled one record" (before + 1) (Durable.wal_records h);
  Durable.close h;
  let h2 = Durable.open_dir dir in
  check_int "replay sees only the DML" (before + 1)
    (Durable.recovery h2).Durable.replayed_records;
  Durable.close h2

(* Reads are pure: every kind of read statement, run through a durable
   session, leaves the epoch, the schema and the WAL as they were, and
   a snapshot taken afterwards reloads only the seed's types. *)
let assert_reads_pure ~name ~seed stmts =
  in_tmp name @@ fun dir ->
  Prima.Adaptive.install ();
  let h = Durable.open_or_seed ~seed dir in
  let db = Durable.db h in
  let epoch0 = Database.epoch db and wal0 = Durable.wal_records h in
  let atypes0 = Database.atom_type_names db in
  let ltypes0 = Database.link_type_names db in
  let session = Mad_mql.Session.create db in
  ignore
    (Mad_mql.Session.add_on_commit session (fun () -> Durable.commit h));
  List.iter
    (fun stmt ->
      ignore (Mad_mql.Session.run_to_string session stmt);
      let ctx what = Printf.sprintf "%s unchanged by %s" what stmt in
      check_int (ctx "epoch") epoch0 (Database.epoch db);
      check (ctx "atom types") true (Database.atom_type_names db = atypes0);
      check (ctx "link types") true (Database.link_type_names db = ltypes0);
      check_int (ctx "wal records") wal0 (Durable.wal_records h))
    stmts;
  Durable.snapshot h;
  Durable.close h;
  let h2 = Durable.open_dir dir in
  check_int "snapshot reloads the seed's atom types" (List.length atypes0)
    (List.length (Database.atom_type_names (Durable.db h2)));
  Durable.close h2

let test_reads_are_pure () =
  let brazil () = Workloads.Geo_brazil.db (Workloads.Geo_brazil.build ()) in
  let sigma = "SELECT ALL FROM state-area-edge-point WHERE state.name = 'SP';" in
  let pi = "SELECT state(name), area FROM state-area WHERE state.hectare > 900;" in
  let big = "SELECT ALL FROM state-area-edge-point WHERE state.hectare > 900" in
  let pn = "SELECT ALL FROM state-area-edge-point WHERE point.name = 'pn'" in
  let product = "SELECT ALL FROM rv(river-net), st(state-area);" in
  assert_reads_pure ~name:"pure-brazil" ~seed:brazil
    [
      sigma; pi; big ^ " UNION " ^ pn ^ ";"; big ^ " DIFF " ^ pn ^ ";";
      big ^ " INTERSECT " ^ pn ^ ";"; product;
      "SELECT ALL FROM edge RECURSIVE BY (edge-point, ~edge-point);";
      "EXPLAIN " ^ sigma; "EXPLAIN " ^ product; "EXPLAIN ANALYZE " ^ sigma;
      "EXPLAIN ANALYZE " ^ pi; "EXPLAIN ANALYZE " ^ product;
      "EXPLAIN ANALYZE " ^ big ^ " UNION " ^ pn ^ ";";
    ];
  check_int "brazil has 7 atom types" 7
    (List.length (Database.atom_type_names (brazil ())));
  (* brazil has no reflexive link type: recursion runs on the seed's
     part-next-part chain *)
  assert_reads_pure ~name:"pure-recursive" ~seed:Harness.seed_db
    [
      "SELECT ALL FROM part RECURSIVE BY next;";
      "SELECT ALL FROM part RECURSIVE BY next WHERE part.weight >= 3;";
      "EXPLAIN ANALYZE SELECT ALL FROM part RECURSIVE BY next;";
    ]

(* --- the learned-catalog file ---------------------------------------- *)

let catalog_of_text text =
  match Mad_obs.State_file.of_string Prima.Catalog_io.state_file text with
  | Ok (records, torn) ->
    let s, skipped = Prima.Catalog_io.of_records records in
    (s, skipped + torn)
  | Error e -> Alcotest.fail e

let test_catalog_roundtrip () =
  let db = Harness.seed_db () in
  let module Smap = Prima.Stats.Smap in
  let s = Prima.Stats.collect db in
  (* learned entries whose keys carry spaces, quotes and '=' *)
  let s =
    {
      s with
      Prima.Stats.learned =
        Smap.add "part-next"
          { Prima.Stats.lf_fwd = Some 3.9; lf_bwd = None; lr_fwd = Some 0.1;
            lr_bwd = None }
          s.Prima.Stats.learned;
      learned_sel =
        Smap.add "part|part.name = 'a b'" 0.037 s.Prima.Stats.learned_sel;
    }
  in
  let s', skipped =
    catalog_of_text
      (Mad_obs.State_file.to_string Prima.Catalog_io.state_file
         (Prima.Catalog_io.records s))
  in
  check_int "nothing skipped" 0 skipped;
  check "atom counts" true
    (Smap.equal ( = ) s.Prima.Stats.atom_counts s'.Prima.Stats.atom_counts);
  check "distinct" true
    (Smap.equal ( = ) s.Prima.Stats.distinct s'.Prima.Stats.distinct);
  check "link stats" true
    (Smap.equal ( = ) s.Prima.Stats.link_stats s'.Prima.Stats.link_stats);
  check "learned factors" true
    (Smap.equal ( = ) s.Prima.Stats.learned s'.Prima.Stats.learned);
  check "learned selectivities" true
    (Smap.equal ( = ) s.Prima.Stats.learned_sel s'.Prima.Stats.learned_sel);
  (* a malformed record is skipped and counted; the good ones load *)
  let s'', skipped =
    catalog_of_text "# MAD stats v2\ncount part 3\nfrobnicate\n"
  in
  check_int "the malformed line is counted" 1 skipped;
  check "the good record loads" true
    (Smap.find_opt "part" s''.Prima.Stats.atom_counts = Some 3);
  (* a last line without its newline is torn, even when it parses *)
  let torn, skipped =
    catalog_of_text "# MAD stats v2\ncount part 3\ncount state 1"
  in
  check_int "the torn line is counted" 1 skipped;
  check "the torn record is dropped" false
    (Smap.mem "state" torn.Prima.Stats.atom_counts)

(* Side state is advisory: stats.mad cut off mid-record, a 0-byte
   digest.mad and a timeline.mad under a wrong header are each loaded
   in part or reported and ignored, never raised, and an empty catalog
   never stands in for freshly collected statistics. *)
let test_torn_side_state () =
  in_tmp "side_state" @@ fun dir ->
  let module Sf = Mad_obs.State_file in
  let module Smap = Prima.Stats.Smap in
  let brazil () = Workloads.Geo_brazil.db (Workloads.Geo_brazil.build ()) in
  Prima.Adaptive.install ();
  let h = Durable.open_or_seed ~seed:brazil dir in
  Fun.protect ~finally:(fun () -> Durable.close h) @@ fun () ->
  let analyze = "EXPLAIN ANALYZE SELECT ALL FROM state-area-edge-point;" in
  let catalog s =
    match s.Mad_mql.Session.ext with
    | Some (Prima.Adaptive.Adaptive { Prima.Adaptive.catalog; _ }) -> catalog
    | _ -> None
  in
  let write path text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  let s = Mad_mql.Session.create (Durable.db h) in
  ignore (Mad_mql.Session.run_to_string s analyze);
  check "catalog saved" true (Prima.Adaptive.save_session s dir);
  let stats = Sf.path dir Prima.Catalog_io.state_file in
  let text = In_channel.with_open_bin stats In_channel.input_all in
  let rec link_at i =
    if String.sub text i 6 = "\nlink " then i + 1 else link_at (i + 1)
  in
  write stats (String.sub text 0 (link_at 0 + String.length "link area-e"));
  write (Sf.path dir Mad_obs.Digest.state_file) "";
  write (Sf.path dir Mad_obs.Timeline.state_file)
    "# MAD timeline v0\nframe 1 2.0 3 0\n";
  let s2 = Mad_mql.Session.create (Durable.db h) in
  check "torn catalog loads" true (Prima.Adaptive.load_session s2 dir);
  (match catalog s2 with
   | Some c ->
     let full = Prima.Stats.collect (Durable.db h) in
     check "records before the cut load" true
       (Smap.equal ( = ) c.Prima.Stats.atom_counts full.Prima.Stats.atom_counts
       && Smap.equal ( = ) c.Prima.Stats.distinct full.Prima.Stats.distinct);
     check "the torn record is dropped" true
       (Smap.is_empty c.Prima.Stats.link_stats)
   | None -> Alcotest.fail "torn catalog not installed");
  let dg = Mad_obs.Digest.create (Mad_obs.Registry.create ()) in
  check "0-byte digest.mad ignored" false
    (Sf.load Mad_obs.Digest.state_file dir (Mad_obs.Digest.merge_records dg));
  let tl = Mad_obs.Timeline.create () in
  check "wrong-headed timeline.mad ignored" false
    (Sf.load Mad_obs.Timeline.state_file dir
       (Mad_obs.Timeline.merge_records tl));
  check_int "no frames merged" 0 (List.length (Mad_obs.Timeline.frames tl));
  (* a 0-byte catalog is no catalog: estimates are collected fresh *)
  write stats "";
  let s3 = Mad_mql.Session.create (Durable.db h) in
  check "0-byte catalog not installed" false
    (Prima.Adaptive.load_session s3 dir);
  write stats "# MAD stats v2\n";
  check "header-only catalog not installed" false
    (Prima.Adaptive.load_session s3 dir);
  check "session starts without a catalog" true (catalog s3 = None);
  let out = Mad_mql.Session.run_to_string s3 analyze in
  check "estimates present" true (contains ~affix:"est=" out);
  check "estimates collected fresh, not 0" false
    (contains ~affix:"est=0.0" out)

let suite =
  [
    Alcotest.test_case "WAL round-trip and append mode" `Quick
      test_wal_roundtrip;
    Alcotest.test_case "WAL torn tail" `Quick test_wal_torn_tail;
    Alcotest.test_case "WAL checksum corruption" `Quick
      test_wal_corrupt_record;
    Alcotest.test_case "log record codec round-trip" `Quick
      test_logrec_roundtrip;
    Alcotest.test_case "reopen replays the journal" `Quick test_reopen_replays;
    Alcotest.test_case "torn final record skipped" `Quick
      test_torn_final_record_skipped;
    Alcotest.test_case "snapshot truncates the log" `Quick
      test_snapshot_truncates;
    Alcotest.test_case "snapshot_every auto-rolls" `Quick test_snapshot_every;
    Alcotest.test_case "injected append failure is clean" `Quick
      test_fail_append_is_clean;
    Alcotest.test_case "crash recovery converges (seed 0)" `Quick (fun () ->
        test_crash_property 0);
    Alcotest.test_case "crash recovery converges (seed 3)" `Quick (fun () ->
        test_crash_property 3);
    Alcotest.test_case "recovery errors name their file" `Quick
      test_recovery_errors_name_files;
    Alcotest.test_case "reads leave the store unchanged" `Quick
      test_reads_are_pure;
    Alcotest.test_case "queries never journal" `Quick
      test_queries_do_not_journal;
    Alcotest.test_case "torn side-state never blocks open" `Quick
      test_torn_side_state;
    Alcotest.test_case "learned catalog round-trip" `Quick
      test_catalog_roundtrip;
  ]
