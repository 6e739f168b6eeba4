(* Recursive molecule types over the reflexive composition link type
   (ch. 5 outlook, [Schö89]): parts explosion, where-used, depth
   bounds, cycle termination. *)

open Mad_store
open Workloads
module R = Mad_recursive.Recursive

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_explosion_equals_reference () =
  let bom = Bom_gen.build Bom_gen.default in
  let d = R.v bom.Bom_gen.db ~root_type:"part" ~link:"composition" () in
  let occ = R.m_dom bom.Bom_gen.db d in
  check_int "one molecule per part"
    (Database.count_atoms bom.Bom_gen.db "part")
    (List.length occ);
  List.iter
    (fun (m : R.molecule) ->
      let expected = Bom_gen.explosion_reference bom m.R.root in
      check "members = transitive closure" true
        (Aid.Set.equal m.R.members expected))
    occ

let test_where_used_equals_reference () =
  let bom = Bom_gen.build Bom_gen.default in
  let d =
    R.v bom.Bom_gen.db ~root_type:"part" ~link:"composition" ~view:R.Super ()
  in
  List.iter
    (fun (m : R.molecule) ->
      check "members = reverse closure" true
        (Aid.Set.equal m.R.members (Bom_gen.where_used_reference bom m.R.root)))
    (R.m_dom bom.Bom_gen.db d)

let test_sub_and_super_are_converses () =
  let bom = Bom_gen.build Bom_gen.default in
  let db = bom.Bom_gen.db in
  let sub = R.m_dom db (R.v db ~root_type:"part" ~link:"composition" ()) in
  let super =
    R.m_dom db (R.v db ~root_type:"part" ~link:"composition" ~view:R.Super ())
  in
  let mem occ root x =
    let m = List.find (fun (m : R.molecule) -> Aid.equal m.R.root root) occ in
    Aid.Set.mem x m.R.members
  in
  (* y in explosion(x) iff x in where-used(y): the symmetric link pair *)
  List.iter
    (fun (m : R.molecule) ->
      Aid.Set.iter
        (fun y -> check "converse" true (mem super y m.R.root))
        m.R.members)
    sub

let test_depth_bound () =
  let bom =
    Bom_gen.build { Bom_gen.default with Bom_gen.depth = 5; share = 0.0 }
  in
  let db = bom.Bom_gen.db in
  let root = bom.Bom_gen.levels.(0).(0) in
  let at_depth k =
    let d = R.v db ~root_type:"part" ~link:"composition" ~max_depth:k () in
    (R.derive_one db d root).R.members
  in
  check_int "depth 0 = root only" 1 (Aid.Set.cardinal (at_depth 0));
  check "monotone in depth" true
    (Aid.Set.subset (at_depth 1) (at_depth 2)
     && Aid.Set.subset (at_depth 2) (at_depth 3));
  let full =
    (R.derive_one db (R.v db ~root_type:"part" ~link:"composition" ()) root)
      .R.members
  in
  check "large depth = full closure" true
    (Aid.Set.equal (at_depth 100) full)

let test_cycle_terminates () =
  (* a cyclic composition: a -> b -> c -> a.  Data cycles must not
     diverge; the closure is the whole cycle from any root. *)
  let db = Database.create () in
  Bom_gen.define_schema db;
  let part name =
    (Database.insert_atom db ~atype:"part"
       [ Value.String name; Value.Int 0; Value.Int 1 ])
      .id
  in
  let a = part "a" and b = part "b" and c = part "c" in
  Database.add_link db "composition" ~left:a ~right:b;
  Database.add_link db "composition" ~left:b ~right:c;
  Database.add_link db "composition" ~left:c ~right:a;
  let d = R.v db ~root_type:"part" ~link:"composition" () in
  let m = R.derive_one db d a in
  check_int "whole cycle" 3 (Aid.Set.cardinal m.R.members);
  (* rendering terminates and marks the cycle *)
  let rendered = Format.asprintf "%a" (R.pp_molecule db { R.name = "t"; desc = d; occ = [ m ] }) m in
  check "cycle marked" true
    (String.length rendered > 0)

let test_depth_of_is_shortest () =
  let db = Database.create () in
  Bom_gen.define_schema db;
  let part name =
    (Database.insert_atom db ~atype:"part"
       [ Value.String name; Value.Int 0; Value.Int 1 ])
      .id
  in
  (* a -> b -> d and a -> d : d reachable at depth 1 and 2 *)
  let a = part "a" and b = part "b" and d_ = part "d" in
  Database.add_link db "composition" ~left:a ~right:b;
  Database.add_link db "composition" ~left:b ~right:d_;
  Database.add_link db "composition" ~left:a ~right:d_;
  let d = R.v db ~root_type:"part" ~link:"composition" () in
  let m = R.derive_one db d a in
  check_int "shortest depth" 1 (Aid.Map.find d_ m.R.depth_of)

let test_restrict_by_depth_pseudo_attr () =
  let bom = Bom_gen.build Bom_gen.default in
  let db = bom.Bom_gen.db in
  let t = R.define db ~name:"expl" (R.v db ~root_type:"part" ~link:"composition" ()) in
  (* the root node is pre-bound, so member-level conditions use an
     explicit quantifier *)
  let restricted =
    R.restrict db
      Mad.Qual.(Exists ("part", attr "part" "DEPTH" >=% int 2))
      t ~name:"deep"
  in
  (* keeps molecules that reach at least depth 2 *)
  check "some survive" true (List.length restricted.R.occ > 0);
  check "fewer than all" true
    (List.length restricted.R.occ < List.length t.R.occ)

let test_with_component_structure () =
  (* Schöning's full recursive molecule types: each part of the
     explosion expands its supplier sub-structure *)
  let db = Database.create () in
  Bom_gen.define_schema db;
  ignore
    (Database.declare_atom_type db "supplier"
       [ Schema.Attr.v "sname" Domain.String ]);
  ignore (Database.declare_link_type db "part-supplier" ("part", "supplier"));
  let part name =
    (Database.insert_atom db ~atype:"part"
       [ Value.String name; Value.Int 0; Value.Int 1 ])
      .id
  in
  let supplier name =
    (Database.insert_atom db ~atype:"supplier" [ Value.String name ]).id
  in
  let a = part "a" and b = part "b" and c = part "c" in
  let acme = supplier "acme" and bolt = supplier "boltco" in
  Database.add_link db "composition" ~left:a ~right:b;
  Database.add_link db "composition" ~left:b ~right:c;
  Database.add_link db "part-supplier" ~left:a ~right:acme;
  Database.add_link db "part-supplier" ~left:c ~right:bolt;
  let cdesc =
    Mad.Mdesc.v db ~nodes:[ "part"; "supplier" ]
      ~edges:[ ("part-supplier", "part", "supplier") ]
  in
  let d =
    R.v db ~root_type:"part" ~link:"composition" ~component:cdesc ()
  in
  let m = R.derive_one db d a in
  check_int "three members" 3 (Aid.Set.cardinal m.R.members);
  check_int "component per member" 3 (Aid.Map.cardinal m.R.components);
  let sub_of id = Aid.Map.find id m.R.components in
  check "a supplied by acme" true
    (Aid.Set.mem acme (Mad.Molecule.component (sub_of a) "supplier"));
  check "b has no supplier" true
    (Aid.Set.is_empty (Mad.Molecule.component (sub_of b) "supplier"));
  (* restriction over the component node *)
  let t = R.define db ~name:"expl" d in
  let restricted =
    R.restrict db
      Mad.Qual.(Exists ("supplier", attr "supplier" "sname" =% str "boltco"))
      t ~name:"r"
  in
  (* boltco supplies c, which is in the closure of a, b and c *)
  check_int "three qualifying roots" 3 (List.length restricted.R.occ);
  let none =
    R.restrict db
      Mad.Qual.(Exists ("supplier", attr "supplier" "sname" =% str "acme"))
      t ~name:"r2"
  in
  (* acme supplies a only; a is in its own closure only *)
  check_int "one qualifying root" 1 (List.length none.R.occ)

let test_with_component_validation () =
  let bom = Bom_gen.build Bom_gen.default in
  let db = bom.Bom_gen.db in
  (* component rooted elsewhere rejected: build one rooted at a
     different type *)
  ignore
    (Database.declare_atom_type db "warehouse"
       [ Schema.Attr.v "wname" Domain.String ]);
  ignore (Database.declare_link_type db "stocked" ("warehouse", "part"));
  let bad =
    Mad.Mdesc.v db ~nodes:[ "warehouse"; "part" ]
      ~edges:[ ("stocked", "warehouse", "part") ]
  in
  match R.v db ~root_type:"part" ~link:"composition" ~component:bad () with
  | _ -> Alcotest.fail "component rooted elsewhere must be rejected"
  | exception Err.Mad_error _ -> ()

let test_with_via_mql () =
  let design = Vlsi_gen.build Vlsi_gen.default in
  let s = Mad_mql.Session.create design.Vlsi_gen.db in
  match
    Mad_mql.Session.run s
      "SELECT ALL FROM cell RECURSIVE BY instantiates WITH cell-pin WHERE \
       cell.cname = 'TOP';"
  with
  | Mad_mql.Session.Result (Mad_mql.Translate.Recursive r, _) ->
    check_int "one molecule" 1 (List.length r.R.occ);
    let m = List.hd r.R.occ in
    (* every member cell carries its pins *)
    check "components populated" true (Aid.Map.cardinal m.R.components > 0);
    let total_pins =
      Aid.Map.fold
        (fun _ sub acc ->
          acc + Aid.Set.cardinal (Mad.Molecule.component sub "pin"))
        m.R.components 0
    in
    check "pins reached through the recursion" true (total_pins > 0)
  | _ -> Alcotest.fail "expected recursive result"

let test_recursive_set_ops () =
  let bom = Bom_gen.build Bom_gen.default in
  let db = bom.Bom_gen.db in
  let t = R.define db ~name:"all" (R.v db ~root_type:"part" ~link:"composition" ()) in
  let deep =
    R.restrict db
      Mad.Qual.(Exists ("part", attr "part" "DEPTH" >=% int 2))
      t ~name:"deep"
  in
  let shallow = R.diff ~name:"shallow" t deep in
  check_int "partition" (List.length t.R.occ)
    (List.length deep.R.occ + List.length shallow.R.occ);
  let u = R.union ~name:"u" deep shallow in
  check_int "union restores" (List.length t.R.occ) (List.length u.R.occ);
  check_int "intersection of partition empty" 0
    (List.length (R.intersect ~name:"i" deep shallow).R.occ);
  (* incompatible descs rejected *)
  let super = R.define db ~name:"sup" (R.v db ~root_type:"part" ~link:"composition" ~view:R.Super ()) in
  match R.union ~name:"bad" t super with
  | _ -> Alcotest.fail "incompatible recursive union must fail"
  | exception Err.Mad_error _ -> ()

let test_recursive_set_ops_via_mql () =
  let bom = Bom_gen.build Bom_gen.default in
  let s = Mad_mql.Session.create bom.Bom_gen.db in
  match
    Mad_mql.Session.run s
      "SELECT ALL FROM part RECURSIVE BY composition DIFF SELECT ALL FROM \
       part RECURSIVE BY composition WHERE part.pname = 'P0_0';"
  with
  | Mad_mql.Session.Result (Mad_mql.Translate.Recursive r, _) ->
    check_int "all but one root"
      (Database.count_atoms bom.Bom_gen.db "part" - 1)
      (List.length r.R.occ)
  | _ -> Alcotest.fail "expected recursive result"

let test_non_reflexive_rejected () =
  let b = Geo_brazil.build () in
  let db = Geo_brazil.db b in
  match R.v db ~root_type:"edge" ~link:"edge-point" () with
  | _ -> Alcotest.fail "non-reflexive link must be rejected"
  | exception Err.Mad_error _ -> ()

(* reference closure over a composed neighbour function *)
let reference_closure step root =
  let rec go seen frontier =
    if Aid.Set.is_empty frontier then seen
    else
      let next = step frontier in
      let fresh = Aid.Set.diff next seen in
      go (Aid.Set.union seen fresh) fresh
  in
  go (Aid.Set.singleton root) (Aid.Set.singleton root)

let test_cycle_recursion_vlsi_connectivity () =
  let design = Vlsi_gen.build Vlsi_gen.default in
  let db = design.Vlsi_gen.db in
  (* cell -> pin -> net -> pin -> cell: cells connected through nets *)
  let d =
    R.cycle db ~root_type:"cell"
      ~steps:
        [
          ("cell-pin", `Fwd); ("net-pin", `Bwd); ("net-pin", `Fwd);
          ("cell-pin", `Bwd);
        ]
      ()
  in
  let occ = R.cycle_m_dom db d in
  check_int "one closure per cell"
    (Database.count_atoms db "cell")
    (List.length occ);
  (* reference: compose the neighbour functions directly *)
  let step frontier =
    let hop link dir s =
      Aid.Set.fold
        (fun id acc -> Aid.Set.union acc (Database.neighbors db link ~dir id))
        s Aid.Set.empty
    in
    frontier |> hop "cell-pin" `Fwd |> hop "net-pin" `Bwd |> hop "net-pin" `Fwd
    |> hop "cell-pin" `Bwd
  in
  List.iter
    (fun (m : R.cycle_molecule) ->
      check "matches reference closure" true
        (Aid.Set.equal m.R.c_members (reference_closure step m.R.c_root_atom)))
    occ;
  (* connectivity is symmetric: b in closure(a) iff a in closure(b) *)
  let mem root x =
    let m =
      List.find (fun (m : R.cycle_molecule) -> Aid.equal m.R.c_root_atom root) occ
    in
    Aid.Set.mem x m.R.c_members
  in
  List.iter
    (fun (m : R.cycle_molecule) ->
      Aid.Set.iter
        (fun x -> check "symmetric" true (mem x m.R.c_root_atom))
        m.R.c_members)
    occ;
  (* intermediates recorded per type *)
  let some = List.find (fun (m : R.cycle_molecule) -> Aid.Set.cardinal m.R.c_members > 1) occ in
  check "pins recorded" true (R.Smap.mem "pin" some.R.c_intermediates);
  check "nets recorded" true (R.Smap.mem "net" some.R.c_intermediates)

let test_cycle_validation () =
  let design = Vlsi_gen.build Vlsi_gen.default in
  let db = design.Vlsi_gen.db in
  (* does not return to the root type *)
  (match R.cycle db ~root_type:"cell" ~steps:[ ("cell-pin", `Fwd) ] () with
  | _ -> Alcotest.fail "non-returning cycle accepted"
  | exception Err.Mad_error _ -> ());
  (* wrong step direction *)
  (match R.cycle db ~root_type:"cell" ~steps:[ ("cell-pin", `Bwd) ] () with
  | _ -> Alcotest.fail "mismatched step accepted"
  | exception Err.Mad_error _ -> ());
  match R.cycle db ~root_type:"cell" ~steps:[] () with
  | _ -> Alcotest.fail "empty cycle accepted"
  | exception Err.Mad_error _ -> ()

let test_cycle_depth_bound () =
  let design = Vlsi_gen.build Vlsi_gen.default in
  let db = design.Vlsi_gen.db in
  let steps =
    [ ("cell-pin", `Fwd); ("net-pin", `Bwd); ("net-pin", `Fwd); ("cell-pin", `Bwd) ]
  in
  let root = design.Vlsi_gen.leaves.(0) in
  let members k =
    (R.derive_cycle db (R.cycle db ~root_type:"cell" ~steps ?max_depth:k ()) root)
      .R.c_members
  in
  check "monotone" true
    (Aid.Set.subset (members (Some 1)) (members (Some 2))
     && Aid.Set.subset (members (Some 2)) (members None));
  check_int "depth 0 = root" 1 (Aid.Set.cardinal (members (Some 0)))

let suite =
  [
    Alcotest.test_case "cycle recursion (VLSI connectivity)" `Quick
      test_cycle_recursion_vlsi_connectivity;
    Alcotest.test_case "cycle validation" `Quick test_cycle_validation;
    Alcotest.test_case "cycle depth bound" `Quick test_cycle_depth_bound;
    Alcotest.test_case "explosion = transitive closure" `Quick
      test_explosion_equals_reference;
    Alcotest.test_case "where-used = reverse closure" `Quick
      test_where_used_equals_reference;
    Alcotest.test_case "sub/super converses" `Quick
      test_sub_and_super_are_converses;
    Alcotest.test_case "depth bound" `Quick test_depth_bound;
    Alcotest.test_case "data cycle terminates" `Quick test_cycle_terminates;
    Alcotest.test_case "depth_of is shortest" `Quick
      test_depth_of_is_shortest;
    Alcotest.test_case "DEPTH pseudo-attribute" `Quick
      test_restrict_by_depth_pseudo_attr;
    Alcotest.test_case "non-reflexive rejected" `Quick
      test_non_reflexive_rejected;
    Alcotest.test_case "WITH component structure" `Quick
      test_with_component_structure;
    Alcotest.test_case "WITH validation" `Quick
      test_with_component_validation;
    Alcotest.test_case "WITH via MOL (VLSI pins)" `Quick test_with_via_mql;
    Alcotest.test_case "recursive set operations" `Quick
      test_recursive_set_ops;
    Alcotest.test_case "recursive set ops via MOL" `Quick
      test_recursive_set_ops_via_mql;
  ]
