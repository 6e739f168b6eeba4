(* Manipulation facilities: shared-subobject-safe deletion, detach
   mode, attribute modification, insertion with links — at the library
   level and through MOL DML statements. *)

open Mad_store
open Workloads
module S = Mad_mql.Session
module MA = Mad.Molecule_algebra
module MT = Mad.Molecule_type

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let setting () =
  let b = Geo_brazil.build () in
  let db = Geo_brazil.db b in
  let mt = MA.define db ~name:"mt_state" (Geo_brazil.mt_state_desc b) in
  (b, db, mt)

let test_shared_safe_delete () =
  let b, db, mt = setting () in
  (* delete the SP molecule: its private geometry goes; the border
     edges/points shared with MG, MS, PR, SC must survive *)
  let sp = Geo_brazil.state b "SP" in
  let victim =
    match MT.find_by_root mt sp with Some m -> m | None -> assert false
  in
  let shared_before =
    (* atoms of SP also held by other state molecules *)
    List.fold_left
      (fun s (m : Mad.Molecule.t) ->
        if Aid.equal m.Mad.Molecule.root sp then s
        else Aid.Set.union s (Mad.Molecule.shared victim m))
      Aid.Set.empty (MT.occ mt)
  in
  let report = Mad.Manipulate.delete_molecules db mt [ victim ] in
  check_int "one molecule deleted" 1 report.Mad.Manipulate.molecules_deleted;
  check_int "shared atoms kept"
    (Aid.Set.cardinal shared_before)
    report.Mad.Manipulate.atoms_kept_shared;
  (* the shared atoms are still there *)
  Aid.Set.iter
    (fun id -> ignore (Database.atom db id))
    shared_before;
  (* SP itself is gone *)
  (match Database.find_atom db sp with
   | None -> ()
   | Some _ -> Alcotest.fail "SP must be deleted");
  check "database still valid" true (Integrity.is_valid db);
  (* remaining molecules unchanged *)
  let mt' = MA.define db ~name:"after" (Geo_brazil.mt_state_desc b) in
  check_int "nine molecules left" 9 (MT.cardinality mt')

let test_delete_all_is_total () =
  let b, db, mt = setting () in
  ignore b;
  let report = Mad.Manipulate.delete_molecules db mt (MT.occ mt) in
  check_int "everything deleted, nothing shared-protected" 0
    report.Mad.Manipulate.atoms_kept_shared;
  check_int "states empty" 0 (Database.count_atoms db "state");
  check_int "areas empty" 0 (Database.count_atoms db "area");
  check_int "edges empty" 0 (Database.count_atoms db "edge");
  check_int "points empty" 0 (Database.count_atoms db "point");
  (* rivers/cities were not part of the structure: untouched *)
  check_int "rivers untouched" 3 (Database.count_atoms db "river");
  check "valid" true (Integrity.is_valid db)

let test_detach_mode () =
  let b, db, mt = setting () in
  let sp = Geo_brazil.state b "SP" in
  let victim =
    match MT.find_by_root mt sp with Some m -> m | None -> assert false
  in
  let atoms_before = Database.total_atoms db in
  let report =
    Mad.Manipulate.delete_molecules ~mode:`Unlink_only db mt [ victim ]
  in
  check_int "only the root atom deleted" 1 report.Mad.Manipulate.atoms_deleted;
  check_int "one atom fewer" (atoms_before - 1) (Database.total_atoms db);
  check "valid" true (Integrity.is_valid db)

let test_modify () =
  let b, db, mt = setting () in
  ignore b;
  let victims =
    List.filter
      (fun m ->
        MA.molecule_satisfies db mt m
          Mad.Qual.(attr "state" "hectare" >% int 900))
      (MT.occ mt)
  in
  let n =
    Mad.Manipulate.modify_attribute db ~node:"state" ~attr:"hectare"
      (Value.Int 1) victims
  in
  check_int "three states modified" 3 n;
  let mt' = MA.define db ~name:"after_mod" (Mad.Molecule_type.desc mt) in
  let still_big =
    List.filter
      (fun m ->
        MA.molecule_satisfies db mt' m
          Mad.Qual.(attr "state" "hectare" >% int 900))
      (MT.occ mt')
  in
  check_int "none big anymore" 0 (List.length still_big)

let test_modify_domain_checked () =
  let _, db, mt = setting () in
  match
    Mad.Manipulate.modify_attribute db ~node:"state" ~attr:"hectare"
      (Value.String "oops") (MT.occ mt)
  with
  | _ -> Alcotest.fail "domain violation must be rejected"
  | exception Err.Mad_error _ -> ()

let test_insert_linked () =
  let b, db, _ = setting () in
  let pn = b.Geo_brazil.pn in
  let city =
    Mad.Manipulate.insert_atom_linked db ~atype:"city"
      [ Value.String "Pn City"; Value.Int 1234 ]
      ~links:[ ("city-point", pn) ]
  in
  check "linked" true
    (Aid.Set.mem pn (Database.neighbors db "city-point" ~dir:`Fwd city.Atom.id));
  check "valid" true (Integrity.is_valid db)

(* --- the same through MOL ------------------------------------------ *)

let mql_session () =
  let b = Geo_brazil.build () in
  (b, S.create (Geo_brazil.db b))

let test_mql_delete () =
  let _, s = mql_session () in
  match
    S.run s
      "DELETE FROM mts(state-area-edge-point) WHERE state.name = 'SP';"
  with
  | S.Dml msg ->
    check "mentions kept shared atoms" true
      (String.length msg > 0);
    check_int "nine states left" 9 (Database.count_atoms s.S.db "state");
    check "valid" true (Integrity.is_valid s.S.db)
  | _ -> Alcotest.fail "expected Dml outcome"

let test_mql_delete_refreshes_catalog () =
  let _, s = mql_session () in
  ignore (S.run s "SELECT ALL FROM mts(state-area-edge-point);");
  ignore (S.run s "DELETE FROM mts WHERE state.name = 'SP';");
  match S.run s "SELECT ALL FROM mts;" with
  | S.Result (Mad_mql.Translate.Molecules mt, _) ->
    check_int "catalog refreshed" 9 (Mad.Molecule_type.cardinality mt)
  | _ -> Alcotest.fail "expected molecules"

let test_mql_insert_and_link () =
  let _, s = mql_session () in
  (match S.run s "INSERT INTO city VALUES ('New City', 42);" with
   | S.Inserted a ->
     check_int "city count" 7 (Database.count_atoms s.S.db "city");
     (match
        S.run s (Printf.sprintf "LINK city-point @%d @1;" a.Atom.id)
      with
      | S.Dml _ ->
        check "link exists" true (Database.linked s.S.db "city-point" a.Atom.id 1)
      | _ -> Alcotest.fail "expected Dml")
   | _ -> Alcotest.fail "expected Inserted");
  (* link accepts either role order *)
  match S.run s "INSERT INTO city VALUES ('Other', 1) LINK city-point @2;" with
  | S.Inserted a ->
    check "linked at insert" true (Database.linked s.S.db "city-point" a.Atom.id 2)
  | _ -> Alcotest.fail "expected Inserted"

let test_mql_modify () =
  let _, s = mql_session () in
  match
    S.run s
      "MODIFY state.hectare = 5 FROM state-area-edge-point WHERE point.name \
       = 'pn';"
  with
  | S.Dml msg ->
    check "four modified" true
      (let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
         go 0
       in
       contains msg "4 atom");
    ()
  | _ -> Alcotest.fail "expected Dml"

let test_mql_unlink () =
  let _, s = mql_session () in
  ignore (S.run s "UNLINK city-point @72 @1;");
  check "unlinked" false (Database.linked s.S.db "city-point" 72 1)

let test_aggregates () =
  let _, db, mt = setting () in
  let count pred =
    List.length
      (List.filter (fun m -> MA.molecule_satisfies db mt m pred) (MT.occ mt))
  in
  (* every state has 4 edges of length 1: SUM = 4, AVG = 1 *)
  check_int "sum of edge lengths" 10
    (count Mad.Qual.(Agg (Sum, "edge", "length") =% int 4));
  check_int "avg edge length" 10
    (count Mad.Qual.(Agg (Avg, "edge", "length") =% flt 1.0));
  check_int "min x of points" 10
    (count Mad.Qual.(Agg (Min, "point", "x") >=% int 0));
  (* MAX x distinguishes the two grid columns *)
  let west = count Mad.Qual.(Agg (Max, "point", "x") =% int 1) in
  let east = count Mad.Qual.(Agg (Max, "point", "x") =% int 2) in
  check_int "west column states" 5 west;
  check_int "east column states" 5 east

let test_aggregates_via_mql () =
  let _, s = mql_session () in
  match
    S.run s
      "SELECT ALL FROM mts(state-area-edge-point) WHERE SUM(edge.length) = \
       4 AND MAX(point.x) = 2;"
  with
  | S.Result (Mad_mql.Translate.Molecules mt, _) ->
    check_int "east column via MOL" 5 (Mad.Molecule_type.cardinality mt)
  | _ -> Alcotest.fail "expected molecules"

let test_agg_empty_component () =
  (* MIN/MAX/AVG over an empty component make the comparison false;
     SUM over it is 0 *)
  let db = Database.create () in
  ignore (Database.declare_atom_type db "a" [ Schema.Attr.v "n" Domain.Int ]);
  ignore (Database.declare_atom_type db "b" [ Schema.Attr.v "m" Domain.Int ]);
  ignore (Database.declare_link_type db "ab" ("a", "b"));
  ignore (Database.insert_atom db ~atype:"a" [ Value.Int 1 ]);
  let desc = Mad.Mdesc.v db ~nodes:[ "a"; "b" ] ~edges:[ ("ab", "a", "b") ] in
  let mt = MA.define db ~name:"t" desc in
  let count pred =
    List.length
      (List.filter (fun m -> MA.molecule_satisfies db mt m pred) (MT.occ mt))
  in
  check_int "MIN over empty is undefined" 0
    (count Mad.Qual.(Agg (Min, "b", "m") >=% int 0));
  check_int "SUM over empty is 0" 1
    (count Mad.Qual.(Agg (Sum, "b", "m") =% int 0))

let suite =
  [
    Alcotest.test_case "shared-safe delete" `Quick test_shared_safe_delete;
    Alcotest.test_case "delete all" `Quick test_delete_all_is_total;
    Alcotest.test_case "detach mode" `Quick test_detach_mode;
    Alcotest.test_case "modify" `Quick test_modify;
    Alcotest.test_case "modify domain-checked" `Quick
      test_modify_domain_checked;
    Alcotest.test_case "insert linked" `Quick test_insert_linked;
    Alcotest.test_case "MOL DELETE" `Quick test_mql_delete;
    Alcotest.test_case "MOL DELETE refreshes catalog" `Quick
      test_mql_delete_refreshes_catalog;
    Alcotest.test_case "MOL INSERT/LINK" `Quick test_mql_insert_and_link;
    Alcotest.test_case "MOL MODIFY" `Quick test_mql_modify;
    Alcotest.test_case "MOL UNLINK" `Quick test_mql_unlink;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "aggregates via MOL" `Quick test_aggregates_via_mql;
    Alcotest.test_case "aggregates on empty component" `Quick
      test_agg_empty_component;
  ]
