(* FIG5 — the three-stage definition of the molecule-type operations
   (operation-specific actions -> propagation -> molecule-type
   definition): per-operator cost of the whole stage pipeline, the
   share of prop in it, and a printed trace of Σ on mt_state.

   The operators return result sets and propagate nothing themselves
   (propagation runs on demand), so each Σ/Π/Ω/Δ/Ψ row times the
   operator followed by an explicit [Propagate.prop] of its result —
   all three stages, as before.  α has no propagation stage, and X
   already propagates its operands into the database it is handed. *)

module Table = Mad_store.Table
open Workloads
module MA = Mad.Molecule_algebra
module MT = Mad.Molecule_type

let run () =
  Bench_util.section "FIG5 - molecule-type operations through prop";

  let brazil = Geo_brazil.build () in
  let db0 = Geo_brazil.db brazil in
  let desc = Geo_brazil.mt_state_desc brazil in

  (* the printed trace: Σ[hectare>900](mt_state) stage by stage *)
  let db = Mad_store.Database.copy db0 in
  let mt = MA.define db ~name:"mt_state" desc in
  let pred = Mad.Qual.(attr "state" "hectare" >% int 900) in
  let rsv = List.filter (fun m -> MA.molecule_satisfies db mt m pred) (MT.occ mt) in
  Format.printf
    "operation-specific actions: %d of %d molecules qualify@."
    (List.length rsv) (MT.cardinality mt);
  let before = Mad_store.Database.total_atoms db in
  let mat =
    Mad.Propagate.prop db ~name:"sigma_trace" ~desc ~attr_proj:MT.Smap.empty rsv
  in
  Format.printf
    "prop: database enlarged by %d atoms, %d atom types, %d link types \
     (strategy %s)@."
    (Mad_store.Database.total_atoms db - before)
    (MT.Smap.cardinal mat.Mad.Propagate.node_map)
    (MT.Smap.cardinal mat.Mad.Propagate.link_map)
    (match mat.Mad.Propagate.strategy with `Shared -> "shared" | `Copied -> "copied");
  Format.printf "molecule-type definition: re-derivation exact: %b@."
    (Mad.Propagate.exact db mat.Mad.Propagate.mdesc mat.Mad.Propagate.mocc);

  (* per-operator cost *)
  let t = Table.create [ "operator"; "result molecules"; "cost" ] in
  let fresh_db () =
    let db = Mad_store.Database.copy db0 in
    let mt = MA.define db ~name:(Printf.sprintf "m%d" (Hashtbl.hash db land 0xfff)) desc in
    (db, mt)
  in
  let db, mt = fresh_db () in
  (* the propagation stage, run explicitly after an operator *)
  let prop (r : MT.t) =
    ignore
      (Mad.Propagate.prop db ~name:r.MT.name ~desc:r.MT.desc
         ~attr_proj:r.MT.attr_proj r.MT.occ)
  in
  let big () = MA.restrict db pred mt in
  let touch () = MA.restrict db Mad.Qual.(attr "point" "name" =% str "pn") mt in
  let b = big () and c = touch () in
  let rows =
    [
      ("alpha (define)", (fun () -> ignore (MA.define db ~name:(Mad.Molecule_algebra.gen_name "a") desc)), MT.cardinality mt);
      ("sigma (restrict)", (fun () -> prop (big ())), MT.cardinality b);
      ( "pi (project)",
        (fun () ->
          prop (MA.project db [ ("state", Some [ "name" ]); ("area", None) ] mt)),
        MT.cardinality mt );
      ("omega (union)", (fun () -> prop (MA.union b c)), MT.cardinality (MA.union b c));
      ("delta (difference)", (fun () -> prop (MA.diff b c)), MT.cardinality (MA.diff b c));
      ("psi (intersection)", (fun () -> prop (MA.intersect b c)), MT.cardinality (MA.intersect b c));
      ("x (product)", (fun () -> ignore (MA.product db b c)), MT.cardinality (MA.product db b c));
    ]
  in
  List.iter
    (fun (name, f, card) ->
      let ns = Bench_util.time_ns ("fig5/" ^ name) f in
      Table.add_row t [ name; string_of_int card; Bench_util.pp_ns ns ])
    rows;
  Table.print t;

  (* the share of prop: Σ with and without its propagation stage *)
  let filter_only () =
    List.filter (fun m -> MA.molecule_satisfies db mt m pred) (MT.occ mt)
  in
  let filter_ns = Bench_util.time_ns "fig5/filter-only" (fun () -> ignore (filter_only ())) in
  let full_ns = Bench_util.time_ns "fig5/sigma-with-prop" (fun () -> prop (big ())) in
  Format.printf
    "sigma = filter %s + prop/alpha %s (prop is %.0f%% of the operator)@."
    (Bench_util.pp_ns filter_ns)
    (Bench_util.pp_ns (full_ns -. filter_ns))
    (100. *. (full_ns -. filter_ns) /. full_ns)
