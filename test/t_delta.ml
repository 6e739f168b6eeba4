(* Delta maintenance: a delta-applied snapshot (and a repaired closure
   memo) must be structurally identical to a from-scratch rebuild,
   across randomized DML sequences, cascading deletes, cyclic verdict
   transitions, and the patch-volume fallback. *)

open Mad_store
open Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dreg () = Mad_obs.Obs.registry (Mad_obs.Obs.default ())
let counter name = Mad_obs.Registry.counter_value (dreg ()) name

let same_ids a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Aid.compare x y = 0) a b

(* Every entry the (possibly delta-applied) cached snapshot
   materialized must equal the from-scratch rebuild's. *)
let assert_snap_parity what db =
  let snap = Mad_kernel.Snapshot.of_db db in
  let fresh = Mad_kernel.Snapshot.rebuild db in
  let tis, csrs = Mad_kernel.Snapshot.materialized snap in
  List.iter
    (fun name ->
      let a = (Mad_kernel.Snapshot.tindex snap name).Mad_kernel.Snapshot.ids in
      let b = (Mad_kernel.Snapshot.tindex fresh name).Mad_kernel.Snapshot.ids in
      check (what ^ ": tindex " ^ name) true (same_ids a b))
    tis;
  List.iter
    (fun (lt, fwd) ->
      let dir = if fwd then `Fwd else `Bwd in
      let a = Mad_kernel.Snapshot.csr snap lt ~dir in
      let b = Mad_kernel.Snapshot.csr fresh lt ~dir in
      let tag = what ^ ": csr " ^ lt ^ if fwd then "" else "~" in
      check (tag ^ " offs") true
        (a.Mad_kernel.Snapshot.offs = b.Mad_kernel.Snapshot.offs);
      check (tag ^ " cols") true
        (a.Mad_kernel.Snapshot.cols = b.Mad_kernel.Snapshot.cols))
    csrs

(* force the snapshot entries the delta path will have to maintain *)
let warm db ~atypes ~links =
  let s = Mad_kernel.Snapshot.of_db db in
  List.iter (fun at -> ignore (Mad_kernel.Snapshot.tindex s at)) atypes;
  List.iter
    (fun lt ->
      ignore (Mad_kernel.Snapshot.csr s lt ~dir:`Fwd);
      ignore (Mad_kernel.Snapshot.csr s lt ~dir:`Bwd))
    links

(* ------------------------------------------------------------------ *)

let test_bom_randomized_dml () =
  Random.init 7;
  let bom = Bom_gen.build Bom_gen.default in
  let db = bom.Bom_gen.db in
  Mad_kernel.Delta.track db;
  warm db ~atypes:[ "part" ] ~links:[ "composition" ];
  let live = ref (Aid.Set.elements (Database.atom_ids db "part")) in
  let pick l = List.nth l (Random.int (List.length l)) in
  let d0 = counter "snapshot.delta_applied" in
  for round = 1 to 8 do
    for _ = 1 to 12 do
      match Random.int 5 with
      | 0 | 1 ->
        (* add a composition link between two distinct live parts *)
        let l = pick !live and r = pick !live in
        if Aid.compare l r <> 0 && not (Database.link_exists db "composition" ~left:l ~right:r)
        then Database.add_link db "composition" ~left:l ~right:r
      | 2 -> begin
        match Database.links db "composition" with
        | [] -> ()
        | pairs ->
          let l, r = pick pairs in
          Database.remove_link db "composition" ~left:l ~right:r
      end
      | 3 ->
        let p =
          Database.insert_atom db ~atype:"part"
            [ Value.String "fresh"; Value.Int (Random.int 1000); Value.Int 1 ]
        in
        live := p.Atom.id :: !live;
        Database.add_link db "composition" ~left:(pick !live) ~right:p.Atom.id
      | _ ->
        (* cascading delete: the tap must see the link sub-removals *)
        if List.length !live > 4 then begin
          let v = pick !live in
          Database.delete_atom db v;
          live := List.filter (fun x -> Aid.compare x v <> 0) !live
        end
    done;
    assert_snap_parity (Printf.sprintf "bom round %d" round) db
  done;
  check "delta applied at least once" true
    (counter "snapshot.delta_applied" > d0)

let test_geo_grid_dml () =
  let g = Geo_grid.build ~rows:4 ~cols:4 (List.init 16 (Printf.sprintf "G%02d")) in
  let db = g.Geo_grid.db in
  Mad_kernel.Delta.track db;
  let desc = Geo_schema.mt_state_desc db in
  (* warm the snapshot through the kernel derivation itself *)
  let before = Mad.Derive.m_dom db desc in
  check_int "16 states" 16 (List.length before);
  ignore
    (Geo_grid.add_river g ~name:"R1" ~length:100
       [ g.Geo_grid.h_edges.(1).(1); g.Geo_grid.h_edges.(1).(2) ]);
  ignore (Geo_grid.add_private_river g ~name:"P1" ~length:50 3);
  assert_snap_parity "geo after rivers" db;
  let scalar = Mad.Derive.m_dom_scalar db desc in
  let kernel = Mad.Derive.m_dom db desc in
  check_int "geo: cardinality" (List.length scalar) (List.length kernel);
  List.iter2
    (fun (e : Mad.Molecule.t) (a : Mad.Molecule.t) ->
      check "geo: molecule" true (Mad.Molecule.equal e a))
    scalar kernel

(* ------------------------------------------------------------------ *)

let same_closures what scalar kernel =
  check_int (what ^ ": cardinality") (List.length scalar) (List.length kernel);
  List.iter2
    (fun (a : Mad_recursive.Recursive.molecule)
         (b : Mad_recursive.Recursive.molecule) ->
      check (what ^ ": molecule") true
        (Mad_recursive.Recursive.equal_molecule a b);
      check (what ^ ": depths") true
        (Aid.Map.equal Int.equal a.depth_of b.depth_of))
    scalar kernel

let test_closure_repair_parity () =
  let bom = Bom_gen.build Bom_gen.default in
  let db = bom.Bom_gen.db in
  Mad_kernel.Delta.track db;
  let d =
    Mad_recursive.Recursive.v db ~root_type:"part" ~link:"composition" ()
  in
  let base = Mad_recursive.Recursive.m_dom db d in
  same_closures "bom warm" (Mad_recursive.Recursive.m_dom_scalar db d) base;
  let r0 = counter "closure.repaired" in
  (* attribute-only mutation: the closure must be re-stamped, not
     recomputed *)
  let top = bom.Bom_gen.levels.(0).(0) in
  Database.set_attribute db ~atype:"part" top ~index:1 (Value.Int 4242);
  same_closures "bom restamp"
    (Mad_recursive.Recursive.m_dom_scalar db d)
    (Mad_recursive.Recursive.m_dom db d);
  check "restamp counted as repair" true (counter "closure.repaired" > r0);
  (* structural mutation on the recursion link: partial repair *)
  let r1 = counter "closure.repaired" in
  let leaf =
    bom.Bom_gen.levels.(Array.length bom.Bom_gen.levels - 1).(0)
  in
  let extra =
    (Database.insert_atom db ~atype:"part"
       [ Value.String "bolt"; Value.Int 9; Value.Int 1 ])
      .Atom.id
  in
  ignore r1;
  Database.add_link db "composition" ~left:leaf ~right:extra;
  same_closures "bom partial repair"
    (Mad_recursive.Recursive.m_dom_scalar db d)
    (Mad_recursive.Recursive.m_dom db d);
  (* where-used view repairs independently under the same window
     discipline *)
  let du =
    Mad_recursive.Recursive.v db ~root_type:"part" ~link:"composition"
      ~view:Mad_recursive.Recursive.Super ()
  in
  same_closures "bom super"
    (Mad_recursive.Recursive.m_dom_scalar db du)
    (Mad_recursive.Recursive.m_dom db du)

let test_cyclic_verdict_transitions () =
  (* acyclic -> cyclic -> acyclic: the repaired memo must follow the
     verdict, and kernel/scalar parity must hold at every step *)
  let db = Database.create () in
  ignore (Database.declare_atom_type db "task" [ Schema.Attr.v "n" Domain.Int ]);
  ignore (Database.declare_link_type db "feeds" ("task", "task"));
  Mad_kernel.Delta.track db;
  let atom v = (Database.insert_atom db ~atype:"task" [ Value.Int v ]).Atom.id in
  let a = atom 1 and b = atom 2 and c = atom 3 and d0 = atom 4 in
  Database.add_link db "feeds" ~left:a ~right:b;
  Database.add_link db "feeds" ~left:b ~right:c;
  Database.add_link db "feeds" ~left:c ~right:d0;
  let d = Mad_recursive.Recursive.v db ~root_type:"task" ~link:"feeds" () in
  let step what =
    same_closures what
      (Mad_recursive.Recursive.m_dom_scalar db d)
      (Mad_recursive.Recursive.m_dom db d)
  in
  step "dag";
  (* close the cycle: partial repair must discover it and store the
     cyclic verdict *)
  Database.add_link db "feeds" ~left:c ~right:a;
  step "cycle closed";
  let m_a =
    List.find
      (fun (m : Mad_recursive.Recursive.molecule) -> Aid.compare m.root a = 0)
      (Mad_recursive.Recursive.m_dom db d)
  in
  check_int "closure reaches every task" 4 (Aid.Set.cardinal m_a.members);
  (* break the cycle again: the cyclic verdict cannot be repaired, a
     recompute must restore the shared DAG memo *)
  Database.remove_link db "feeds" ~left:c ~right:a;
  step "cycle broken";
  (* attr-only window on top of a cyclic verdict re-stamps it *)
  Database.add_link db "feeds" ~left:c ~right:a;
  step "cycle re-closed";
  Database.set_attribute db ~atype:"task" a ~index:0 (Value.Int 99);
  step "cycle restamped"

(* ------------------------------------------------------------------ *)

let test_threshold_fallback () =
  let bom = Bom_gen.build Bom_gen.default in
  let db = bom.Bom_gen.db in
  Mad_kernel.Delta.track db;
  warm db ~atypes:[ "part" ] ~links:[ "composition" ];
  Fun.protect
    ~finally:(fun () -> Mad_kernel.Delta.set_max_patches None)
    (fun () ->
      Mad_kernel.Delta.set_max_patches (Some 3);
      let r0 = counter "snapshot.rebuild" in
      let d0 = counter "snapshot.delta_applied" in
      (* four patches: over the forced threshold *)
      let l0 = bom.Bom_gen.levels.(0).(0) and l1 = bom.Bom_gen.levels.(0).(1) in
      let x =
        (Database.insert_atom db ~atype:"part"
           [ Value.String "x"; Value.Int 1; Value.Int 1 ])
          .Atom.id
      in
      Database.add_link db "composition" ~left:l0 ~right:x;
      Database.add_link db "composition" ~left:l1 ~right:x;
      Database.set_attribute db ~atype:"part" x ~index:1 (Value.Int 2);
      assert_snap_parity "over threshold" db;
      check "fallback rebuilt" true (counter "snapshot.rebuild" > r0);
      check_int "no delta apply over threshold" d0
        (counter "snapshot.delta_applied");
      (* back under the threshold, the delta path resumes *)
      Database.set_attribute db ~atype:"part" x ~index:1 (Value.Int 3);
      assert_snap_parity "under threshold again" db;
      check "delta resumed" true (counter "snapshot.delta_applied" > d0))

(* ------------------------------------------------------------------ *)

let test_refresh_gating () =
  (* two molecule types over disjoint structures: a mutation under one
     must not re-derive the other *)
  let db = Database.create () in
  List.iter
    (fun n ->
      ignore (Database.declare_atom_type db n [ Schema.Attr.v "v" Domain.Int ]))
    [ "a"; "b"; "c"; "d" ];
  ignore (Database.declare_link_type db "ab" ("a", "b"));
  ignore (Database.declare_link_type db "cd" ("c", "d"));
  let atom ty v = (Database.insert_atom db ~atype:ty [ Value.Int v ]).Atom.id in
  let a0 = atom "a" 1 and b0 = atom "b" 2 in
  let c0 = atom "c" 3 and d0 = atom "d" 4 in
  Database.add_link db "ab" ~left:a0 ~right:b0;
  Database.add_link db "cd" ~left:c0 ~right:d0;
  let t = Mad_mql.Session.create db in
  let define name nodes edges =
    let desc = Mad.Mdesc.v db ~nodes ~edges in
    Mad_mql.Session.define t name
      (Mad.Molecule_algebra.define db ~name desc)
  in
  define "mab" [ "a"; "b" ] [ ("ab", "a", "b") ];
  define "mcd" [ "c"; "d" ] [ ("cd", "c", "d") ];
  let get name = Hashtbl.find t.Mad_mql.Session.env name in
  let mab0 = get "mab" and mcd0 = get "mcd" in
  (* structural mutation under mab only *)
  let b1 = atom "b" 5 in
  Database.add_link db "ab" ~left:a0 ~right:b1;
  Mad_mql.Session.refresh t;
  check "mab re-derived" false (get "mab" == mab0);
  check "mab sees the new atom" true
    (List.exists
       (fun (m : Mad.Molecule.t) ->
         Aid.Set.mem b1 (Mad.Molecule.component m "b"))
       (Mad.Molecule_type.occ (get "mab")));
  check "mcd untouched by disjoint mutation" true (get "mcd" == mcd0);
  (* attribute-only mutation: nothing structural, nothing re-derived *)
  let mab1 = get "mab" and mcd1 = get "mcd" in
  Database.set_attribute db ~atype:"a" a0 ~index:0 (Value.Int 42);
  Mad_mql.Session.refresh t;
  check "mab survives attr-only refresh" true (get "mab" == mab1);
  check "mcd survives attr-only refresh" true (get "mcd" == mcd1);
  (* refresh at an unchanged epoch is a no-op *)
  let mab2 = get "mab" in
  Mad_mql.Session.refresh t;
  check "same-epoch refresh is free" true (get "mab" == mab2)

let suite =
  [
    Alcotest.test_case "bom randomized DML snapshot parity" `Quick
      test_bom_randomized_dml;
    Alcotest.test_case "geo grid delta parity through the kernel" `Quick
      test_geo_grid_dml;
    Alcotest.test_case "closure repair parity (restamp, partial, super)"
      `Quick test_closure_repair_parity;
    Alcotest.test_case "cyclic verdict transitions" `Quick
      test_cyclic_verdict_transitions;
    Alcotest.test_case "patch-volume threshold falls back to rebuild" `Quick
      test_threshold_fallback;
    Alcotest.test_case "session refresh is delta-gated" `Quick
      test_refresh_gating;
  ]
