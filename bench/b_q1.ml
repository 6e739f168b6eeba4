(* Q1 — ch. 4's first query: SELECT ALL FROM
   mt_state(state-area-edge-point).  End-to-end MOL (parse + translate
   + evaluate) vs the hand-written algebra expression vs the relational
   3-way join plan, at scale. *)

module Table = Mad_store.Table
open Workloads

let q1 = "SELECT ALL FROM mt_state(state-area-edge-point);"

let run () =
  Bench_util.section "Q1 - SELECT ALL FROM mt_state(state-area-edge-point)";

  (* correctness on the paper instance *)
  let brazil = Geo_brazil.build () in
  let db = Geo_brazil.db brazil in
  let session = Mad_mql.Session.create db in
  (match Mad_mql.Session.run session q1 with
   | Mad_mql.Session.Result (Mad_mql.Translate.Molecules mt, _) ->
     Format.printf "MOL> %s@.%d molecules (one per state)@." q1
       (Mad.Molecule_type.cardinality mt)
   | _ -> assert false);

  let t =
    Table.create
      [
        "scale"; "MOL end-to-end"; "algebra only"; "relational (aux)";
        "relational (FK-inlined)"; "rel/alg";
      ]
  in
  List.iter
    (fun (label, p) ->
      let g = Geo_gen.build p in
      let gdb = g.Geo_grid.db in
      let desc = Geo_schema.mt_state_desc gdb in
      let map = Relational.Mapping.of_database gdb in
      let map_fk = Relational.Mapping.of_database ~inline_1n:true gdb in
      let mol_ns =
        Bench_util.time_ns ("q1/mol/" ^ label) (fun () ->
            let s = Mad_mql.Session.create gdb in
            Mad_mql.Session.run s q1)
      in
      let alg_ns =
        Bench_util.time_ns ("q1/algebra/" ^ label) (fun () ->
            Mad.Derive.m_dom gdb desc)
      in
      let rel_ns =
        Bench_util.time_ns ("q1/rel/" ^ label) (fun () ->
            Relational.Emulate.derive map gdb desc)
      in
      let fk_ns =
        Bench_util.time_ns ("q1/rel-fk/" ^ label) (fun () ->
            Relational.Emulate.derive map_fk gdb desc)
      in
      Table.add_row t
        [
          label;
          Bench_util.pp_ns mol_ns;
          Bench_util.pp_ns alg_ns;
          Bench_util.pp_ns rel_ns;
          Bench_util.pp_ns fk_ns;
          Bench_util.ratio rel_ns alg_ns;
        ])
    [
      ("brazil", { Geo_gen.default with Geo_gen.rows = 5; cols = 2 });
      ("8x8", { Geo_gen.default with Geo_gen.rows = 8; cols = 8 });
      ("16x16", { Geo_gen.default with Geo_gen.rows = 16; cols = 16 });
    ];
  Table.print t;

  (* the flat relational answer's redundancy *)
  let map = Relational.Mapping.of_database db in
  let flat =
    Relational.Emulate.flat_join map db (Geo_brazil.mt_state_desc brazil)
  in
  Format.printf
    "flat relational answer: %d rows for 10 molecules over %d distinct atoms@."
    (Relational.Relation.cardinality flat)
    (Mad_store.Database.total_atoms db)
