(* MOL: lexer/parser round-trips, the two ch. 4 queries, set operators,
   recursion syntax and error diagnostics. *)

open Mad_store
open Workloads
module S = Mad_mql.Session
module P = Mad_mql.Parser
module A = Mad_mql.Ast
module T = Mad_mql.Translate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let session () =
  let b = Geo_brazil.build () in
  (b, S.create (Geo_brazil.db b))

let molecules = function
  | S.Result (T.Molecules mt, _) -> mt
  | S.Defined mt -> mt
  | S.Result ((T.Recursive _ | T.Cycles _), _)
  | S.Inserted _ | S.Dml _ | S.Explained _ ->
    Alcotest.fail "expected molecules"

let recursive = function
  | S.Result (T.Recursive r, _) -> r
  | S.Result ((T.Molecules _ | T.Cycles _), _) | S.Defined _ | S.Inserted _
  | S.Dml _ | S.Explained _ ->
    Alcotest.fail "expected recursive result"

(* --- parsing ------------------------------------------------------- *)

let test_parse_q1 () =
  match P.parse "SELECT ALL FROM mt_state(state-area-edge-point);" with
  | A.Query (A.Q { select = A.All; from = A.From_named_def (n, s); where = None })
    ->
    Alcotest.(check string) "name" "mt_state" n;
    check_int "4 nodes" 4 (List.length s.A.s_nodes);
    check_int "3 edges" 3 (List.length s.A.s_edges)
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_q2 () =
  match
    P.parse
      "SELECT ALL FROM point-edge-(area-state,net-river) WHERE \
       point.name='pn';"
  with
  | A.Query (A.Q { select = A.All; from = A.From_anon s; where = Some _ }) ->
    check_int "6 nodes" 6 (List.length s.A.s_nodes);
    check_int "5 edges" 5 (List.length s.A.s_edges)
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_explicit_link () =
  match P.parse "SELECT ALL FROM state-[state-area]-area;" with
  | A.Query (A.Q { from = A.From_anon s; _ }) -> begin
    match s.A.s_edges with
    | [ (A.Via "state-area", "state", "area") ] -> ()
    | _ -> Alcotest.fail "explicit link not recorded"
  end
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_diamond () =
  (* node repetition expresses a diamond *)
  match P.parse "SELECT ALL FROM r-(x-z,y-z);" with
  | A.Query (A.Q { from = A.From_anon s; _ }) ->
    check_int "4 nodes" 4 (List.length s.A.s_nodes);
    check_int "4 edges" 4 (List.length s.A.s_edges)
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_pred_precedence () =
  match P.parse "SELECT ALL FROM state WHERE state.hectare > 100 AND state.hectare < 500 OR NOT state.name = 'SP';" with
  | A.Query (A.Q { where = Some (Mad.Qual.Or (Mad.Qual.And _, Mad.Qual.Not _)); _ })
    -> ()
  | A.Query (A.Q { where = Some p; _ }) ->
    Alcotest.failf "precedence wrong: %s" (Mad.Qual.to_string p)
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_errors () =
  let bad s =
    match P.parse s with
    | _ -> Alcotest.failf "expected parse error for %s" s
    | exception Err.Mad_error _ -> ()
  in
  bad "SELECT";
  bad "SELECT ALL FROM";
  bad "SELECT ALL FROM a-(b,c";
  bad "SELECT ALL FROM a WHERE";
  bad "SELECT ALL FROM a WHERE a.x = ";
  bad "SELECT ALL FROM a; garbage"

let test_roundtrip () =
  let sources =
    [
      "SELECT ALL FROM mt_state(state-area-edge-point);";
      "SELECT ALL FROM point-edge-(area-state,net-river) WHERE \
       point.name='pn';";
      "SELECT state(name), area FROM mt_state(state-area-edge-point);";
      "SELECT ALL FROM state WHERE state.hectare >= 400 AND (COUNT(state) = \
       1 OR NOT state.name <> 'SP');";
      "DEFINE MOLECULE pn AS point-edge-(area-state,net-river);";
      "SELECT ALL FROM part RECURSIVE BY composition DEPTH 3;";
      "SELECT ALL FROM part RECURSIVE BY composition SUPER;";
      "SELECT ALL FROM cell RECURSIVE BY instantiates WITH cell-pin;";
      "INSERT INTO city VALUES ('X', 1) LINK city-point @2;";
      "DELETE FROM state-area WHERE state.name = 'SP' DETACH;";
      "MODIFY state.hectare = 5 FROM mts WHERE SUM(edge.length) = 4;";
      "LINK city-point @1 @2;";
      "UNLINK city-point @1 @2;";
      "SELECT ALL FROM a-b UNION SELECT ALL FROM a-b DIFF SELECT ALL FROM \
       a-b;";
      "SELECT ALL FROM cell RECURSIVE BY (cell-pin, ~net-pin, net-pin, \
       ~cell-pin) DEPTH 2;";
      "SELECT ALL FROM rv(river-net), st(state-area);";
    ]
  in
  List.iter
    (fun src ->
      let ast = P.parse src in
      let printed = A.to_string ast in
      let ast2 =
        try P.parse printed
        with Err.Mad_error m ->
          Alcotest.failf "re-parse of %S failed: %s" printed m
      in
      if A.to_string ast2 <> printed then
        Alcotest.failf "round-trip diverges for %S: %S" src printed)
    sources

(* --- evaluation: the paper's queries ------------------------------- *)

let test_q1_eval () =
  let _, s = session () in
  let mt = molecules (S.run s "SELECT ALL FROM mt_state(state-area-edge-point);") in
  check_int "10 state molecules" 10 (Mad.Molecule_type.cardinality mt);
  (* and the named type is now in the session catalog *)
  let again = molecules (S.run s "SELECT ALL FROM mt_state;") in
  check "same occurrence" true
    (Mad.Molecule.Set.equal
       (Mad.Molecule_type.molecule_set mt)
       (Mad.Molecule_type.molecule_set again))

let test_q2_eval () =
  let b, s = session () in
  let mt =
    molecules
      (S.run s
         "SELECT ALL FROM point-edge-(area-state,net-river) WHERE \
          point.name='pn';")
  in
  check_int "exactly the pn molecule" 1 (Mad.Molecule_type.cardinality mt);
  let m = List.hd (Mad.Molecule_type.occ mt) in
  check "rooted at pn" true (Aid.equal m.Mad.Molecule.root b.Geo_brazil.pn);
  check_int "4 states (GO MG MS SP)" 4
    (Aid.Set.cardinal (Mad.Molecule.component m "state"));
  check_int "1 river (Parana)" 1
    (Aid.Set.cardinal (Mad.Molecule.component m "river"))

let test_mql_equals_algebra () =
  (* ch. 4: the MOL statement and the algebra expression Σ ∘ α must
     yield the same molecule set *)
  let b, s = session () in
  let via_mql =
    molecules
      (S.run s
         "SELECT ALL FROM point-edge-(area-state,net-river) WHERE \
          point.name='pn';")
  in
  let db = s.S.db in
  let pn_mt =
    Mad.Molecule_algebra.define db ~name:"pnhood"
      (Geo_brazil.point_neighborhood_desc b)
  in
  let via_algebra =
    Mad.Molecule_algebra.restrict db
      Mad.Qual.(attr "point" "name" =% str "pn")
      pn_mt
  in
  check "same molecule set" true
    (Mad.Molecule.Set.equal
       (Mad.Molecule_type.molecule_set via_mql)
       (Mad.Molecule_type.molecule_set via_algebra))

let test_define_then_query () =
  let _, s = session () in
  (match S.run s "DEFINE MOLECULE mts AS state-area-edge-point;" with
   | S.Defined _ -> ()
   | _ -> Alcotest.fail "expected Defined");
  let big =
    molecules (S.run s "SELECT ALL FROM mts WHERE state.hectare > 900;")
  in
  check_int "three big states" 3 (Mad.Molecule_type.cardinality big)

let test_projection_select () =
  let _, s = session () in
  let mt =
    molecules
      (S.run s
         "SELECT state(name), area FROM mt_state(state-area-edge-point);")
  in
  check_int "still ten molecules" 10 (Mad.Molecule_type.cardinality mt);
  check_int "two nodes left" 2 (List.length (Mad.Mdesc.nodes (Mad.Molecule_type.desc mt)))

let test_set_operators () =
  let _, s = session () in
  let u =
    molecules
      (S.run s
         "SELECT ALL FROM mta(state-area-edge-point) WHERE state.hectare > \
          900 UNION SELECT ALL FROM mtb(state-area-edge-point) WHERE \
          point.name = 'pn';")
  in
  check_int "union cardinality" 6 (Mad.Molecule_type.cardinality u);
  let i =
    molecules
      (S.run s
         "SELECT ALL FROM mta INTERSECT SELECT ALL FROM mtb WHERE point.name \
          = 'pn';")
  in
  ignore i;
  ()

let test_from_product_simple () =
  let _, s = session () in
  (* product of two named definitions: 3 rivers x 10 states *)
  let x =
    molecules (S.run s "SELECT ALL FROM rv(river-net), st(state-area);")
  in
  check_int "30 pairs" 30 (Mad.Molecule_type.cardinality x);
  (* both operand types entered the catalog *)
  check "rv defined" true (S.lookup s "rv" <> None);
  check "st defined" true (S.lookup s "st" <> None)

(* X enlarges the database it runs in, so a MOL statement with X runs
   in its own copy: the session's database keeps its schema and epoch,
   the outcome carries the copy to render against, and once the outcome
   is dropped nothing global (snapshot cache, delta tracking) keeps the
   copy alive *)
let test_product_runs_in_a_copy () =
  let _, s = session () in
  let db = s.S.db in
  let epoch0 = Database.epoch db and types0 = Database.atom_type_names db in
  let weak = Weak.create 1 in
  (fun () ->
    match S.run s "SELECT ALL FROM rv(river-net), st(state-area);" with
    | S.Result (T.Molecules x, copy) ->
      check_int "30 pairs" 30 (Mad.Molecule_type.cardinality x);
      check "a copy, not the session database" true (copy != db);
      check "the pair root lives in the copy" true
        (Database.has_atom_type copy (Mad.Mdesc.root (Mad.Molecule_type.desc x)));
      check "no snapshot of the copy is cached" true
        (Mad_kernel.Snapshot.peek copy = None);
      check "the copy is not delta-tracked" false (Mad_kernel.Delta.tracked copy);
      Weak.set weak 0 (Some copy)
    | _ -> Alcotest.fail "expected molecules")
    ();
  check_int "session epoch unchanged" epoch0 (Database.epoch db);
  check "session schema unchanged" true (Database.atom_type_names db = types0);
  Gc.full_major ();
  check "the copy is unreachable once the outcome is dropped" true
    (Weak.get weak 0 = None)

let test_cycle_recursion_via_mql () =
  let design = Vlsi_gen.build Vlsi_gen.default in
  let s = S.create design.Vlsi_gen.db in
  let src =
    "SELECT ALL FROM cell RECURSIVE BY (cell-pin, ~net-pin, net-pin, \
     ~cell-pin) WHERE cell.cname = 'NAND';"
  in
  (* round-trips *)
  let printed = Mad_mql.Ast.to_string (S.parse s src) in
  Alcotest.(check string)
    "round-trip" printed
    (Mad_mql.Ast.to_string (Mad_mql.Parser.parse printed));
  match S.run s src with
  | S.Result (T.Cycles c, _) ->
    check_int "one NAND closure" 1 (List.length c.Mad_recursive.Recursive.cocc);
    let m = List.hd c.Mad_recursive.Recursive.cocc in
    check "reaches other cells" true
      (Aid.Set.cardinal m.Mad_recursive.Recursive.c_members > 1)
  | _ -> Alcotest.fail "expected cycle result"

let test_recursion_via_mql () =
  let bom = Bom_gen.build Bom_gen.default in
  let s = S.create bom.Bom_gen.db in
  let r =
    recursive
      (S.run s "SELECT ALL FROM part RECURSIVE BY composition WHERE part.pname = 'P0_0';")
  in
  check_int "single root" 1 (List.length r.Mad_recursive.Recursive.occ);
  let m = List.hd r.Mad_recursive.Recursive.occ in
  let expected =
    Bom_gen.explosion_reference bom m.Mad_recursive.Recursive.root
  in
  check "matches reference closure" true
    (Aid.Set.equal m.Mad_recursive.Recursive.members expected)

let test_unknown_names_diagnosed () =
  let _, s = session () in
  let bad src =
    match S.run s src with
    | _ -> Alcotest.failf "expected error for %s" src
    | exception Err.Mad_error _ -> ()
  in
  bad "SELECT ALL FROM nosuchtype;";
  bad "SELECT ALL FROM state-nosuchtype;";
  bad "SELECT ALL FROM state-city;" (* no link type between them *);
  bad "SELECT ALL FROM mt_state(state-area-edge-point) WHERE state.badattr = 1;";
  bad "SELECT ALL FROM edge-point RECURSIVE BY edge-point;"

let test_explain () =
  let _, s = session () in
  let plan =
    S.explain s
      "SELECT ALL FROM point-edge-(area-state,net-river) WHERE \
       point.name='pn';"
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "plan mentions restriction and definition" true
    (contains plan "point.name" && contains plan "pnhood" = false)

let suite =
  [
    Alcotest.test_case "parse Q1" `Quick test_parse_q1;
    Alcotest.test_case "parse Q2" `Quick test_parse_q2;
    Alcotest.test_case "parse explicit link" `Quick test_parse_explicit_link;
    Alcotest.test_case "parse diamond" `Quick test_parse_diamond;
    Alcotest.test_case "predicate precedence" `Quick
      test_parse_pred_precedence;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "print/parse round-trip" `Quick test_roundtrip;
    Alcotest.test_case "Q1 evaluates (ch. 4)" `Quick test_q1_eval;
    Alcotest.test_case "Q2 evaluates (ch. 4)" `Quick test_q2_eval;
    Alcotest.test_case "MOL = algebra (ch. 4)" `Quick test_mql_equals_algebra;
    Alcotest.test_case "DEFINE then query" `Quick test_define_then_query;
    Alcotest.test_case "SELECT projection" `Quick test_projection_select;
    Alcotest.test_case "set operators" `Quick test_set_operators;
    Alcotest.test_case "FROM product (X)" `Quick test_from_product_simple;
    Alcotest.test_case "X runs in a private copy" `Quick
      test_product_runs_in_a_copy;
    Alcotest.test_case "recursion via MOL" `Quick test_recursion_via_mql;
    Alcotest.test_case "cycle recursion via MOL" `Quick
      test_cycle_recursion_via_mql;
    Alcotest.test_case "unknown names diagnosed" `Quick
      test_unknown_names_diagnosed;
    Alcotest.test_case "explain" `Quick test_explain;
  ]
