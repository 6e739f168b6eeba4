(** The traced run's local replay: each served statement evaluated
    again in this process, on the same dump, by calling the layers'
    public functions in plan order and timing every call from outside.

    One span per layer call (request id, span id, parent, start, end)
    is kept in memory until the run ends; the per-layer metrics are
    aggregated from them.  A statement's span is the parent of its
    layer spans, so [statement - sum of layers] is the replay's own
    unattributed time. *)

open Mad_store
module S = Mad_mql.Session
module T = Mad_mql.Translate
module R = Mad_recursive.Recursive

type span = {
  req : int;  (** the served statement's index *)
  id : int;
  parent : int;  (** 0 for a statement span *)
  name : string;
  t0 : float;
  t1 : float;
}

(* a replayed connection: the server gives each its own session and
   re-derives its catalog when another one moved the epoch *)
type conn = { s : S.t; mutable last_epoch : int }

type t = {
  dump : string;
  mutable db : Database.t;
  mutable conns : conn array;
  base : float;  (** span times are written relative to this *)
  mutable spans : span list;
  mutable next_id : int;
}

(** The layers a replayed read is split into, in plan order.
    [mql.lex] times a standalone [Lexer.tokenize]; [mql.parse] times
    [Parser.parse], which tokenizes again, so only the latter counts
    towards the server-side coverage. *)
let layers =
  [
    "mql.refresh"; "mql.lex"; "mql.parse"; "mql.plan_hash"; "mql.translate";
    "kernel.snapshot"; "core.derive"; "core.prop"; "core.render";
  ]

let covering = List.filter (fun l -> l <> "mql.lex") layers

type read = {
  answer : (string, string) result;  (** rendered as the server renders *)
  layer_us : (string * float) list;  (** µs per layer; absent = not run *)
  epoch_delta : int;
  atoms_visited : int;
  links_traversed : int;
  rows : int;
}

(* sessions set up as the server sets up its own: the adaptive planner
   installed as [madql] installs it, and the workload digest on, so
   every statement also pays for its plan hash *)
let session db =
  let s = S.create ~obs:(Mad_obs.Obs.create ()) db in
  ignore (S.enable_digest s);
  { s; last_epoch = -1 }

let create ~dump ~conns =
  Prima.Adaptive.install ();
  let db = Serialize.load_file dump in
  {
    dump;
    db;
    conns = Array.init conns (fun _ -> session db);
    base = Clock.now ();
    spans = [];
    next_id = 1;
  }

let now = Clock.now

(** Start again from the dump with fresh sessions, as a fresh server
    does; the spans kept so far stay. *)
let restart t =
  t.db <- Serialize.load_file t.dump;
  t.conns <- Array.map (fun _ -> session t.db) t.conns

let open_span t ~req ~parent name =
  let id = t.next_id in
  t.next_id <- id + 1;
  (id, fun t0 t1 -> t.spans <- { req; id; parent; name; t0; t1 } :: t.spans)

(* one replayed statement: its span, and the µs of each layer call *)
type stmt = { rp : t; req : int; sid : int; mutable acc : (string * float) list }

let timed st name f =
  let _, close = open_span st.rp ~req:st.req ~parent:st.sid name in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  close t0 t1;
  st.acc <- (name, (t1 -. t0) *. 1e6) :: st.acc;
  r

(* as the server does before every statement: bring a stale session
   catalog up to the current epoch *)
let refresh st c =
  if c.last_epoch <> Database.epoch st.rp.db then
    timed st "mql.refresh" (fun () -> S.refresh c.s)

let render db = function
  | T.Molecules mt ->
    Format.asprintf "%a" (fun ppf () -> Mad.Render.pp_molecule_type db ppf mt) ()
  | T.Recursive r -> Format.asprintf "%a" R.pp (db, r)
  | T.Cycles c -> Format.asprintf "%a" R.pp_cycle (db, c)

let rec_name =
  let k = ref 0 in
  fun () ->
    incr k;
    Printf.sprintf "r%d" !k

(* what the digest does before evaluating a statement: the
   fingerprint from the session's per-text cache, filled and reset as
   [Session.run] does it, then the plan-hash hook *)
let plan_hash c text stmt =
  let cache = c.s.S.fp_cache in
  let fp, _ =
    match Hashtbl.find_opt cache text with
    | Some v -> v
    | None ->
      let v = Mad_mql.Fingerprint.of_stmt stmt in
      if Hashtbl.length cache >= 1024 then Hashtbl.reset cache;
      Hashtbl.replace cache text v;
      v
  in
  Prima.Adaptive.plan_hash_stmt c.s ~fp stmt

(* [Translate.run], one operator at a time: derivation (α / the
   recursive fixpoint) and restriction (Σ with Def. 9's propagation)
   timed as their own layers; anything else runs whole as derivation *)
let rec exec st c plan =
  let db = st.rp.db and obs = c.s.S.obs and stats = c.s.S.stats in
  match plan with
  | T.P_define (name, desc) ->
    T.Molecules
      (timed st "core.derive" (fun () ->
           Mad.Molecule_algebra.define ~obs ~stats db ~name desc))
  | T.P_restrict (q, p) -> (
    match exec st c p with
    | T.Molecules mt ->
      T.Molecules
        (timed st "core.prop" (fun () ->
             Mad.Molecule_algebra.restrict ~obs ~stats db q mt))
    | T.Recursive _ | T.Cycles _ ->
      Err.failf "recursive molecule types cannot feed this operator")
  | T.P_recursive (d, where) -> (
    let r = timed st "core.derive" (fun () -> R.define ~stats db ~name:(rec_name ()) d) in
    match where with
    | None -> T.Recursive r
    | Some q ->
      T.Recursive
        (timed st "core.prop" (fun () -> R.restrict db q r ~name:(r.R.name ^ "_sigma"))))
  | plan -> timed st "core.derive" (fun () -> T.run ~obs ~stats db (S.lookup c.s) plan)

(** Replay one read of connection [conn] (served as request [req]). *)
let read t ~conn ~req text =
  let c = t.conns.(conn) in
  let sid, close = open_span t ~req ~parent:0 "statement" in
  let st = { rp = t; req; sid; acc = [] } in
  let a0 = Mad.Derive.atoms_visited c.s.S.stats
  and l0 = Mad.Derive.links_traversed c.s.S.stats in
  let t0 = now () in
  let e0 = Database.epoch t.db in
  let answer, rows =
    try
      refresh st c;
      ignore (timed st "mql.lex" (fun () -> Mad_mql.Lexer.tokenize text));
      let stmt =
        timed st "mql.parse" (fun () ->
            Mad_mql.Parser.parse ~env_has:(fun n -> S.lookup c.s n <> None) text)
      in
      ignore (timed st "mql.plan_hash" (fun () -> plan_hash c text stmt));
      let q =
        match stmt with
        | Mad_mql.Ast.Query q -> q
        | _ -> Err.failf "not a query: %s" text
      in
      let plan = timed st "mql.translate" (fun () -> T.compile t.db (S.lookup c.s) q) in
      timed st "kernel.snapshot" (fun () -> ignore (Mad_kernel.Snapshot.of_db t.db));
      let result = exec st c plan in
      let rows =
        match result with
        | T.Molecules mt -> List.length (Mad.Molecule_type.occ mt)
        | T.Recursive r -> List.length r.R.occ
        | T.Cycles cy -> List.length cy.R.cocc
      in
      (Ok (timed st "core.render" (fun () -> render t.db result)), rows)
    with Err.Mad_error msg -> (Error msg, 0)
  in
  c.last_epoch <- Database.epoch t.db;
  close t0 (now ());
  {
    answer;
    layer_us = st.acc;
    epoch_delta = Database.epoch t.db - e0;
    atoms_visited = Mad.Derive.atoms_visited c.s.S.stats - a0;
    links_traversed = Mad.Derive.links_traversed c.s.S.stats - l0;
    rows;
  }

(** Replay one manipulation statement; not part of the layer metrics,
    but it moves the epoch the readers' refreshes react to. *)
let write t ~conn ~req text =
  let c = t.conns.(conn) in
  let sid, close = open_span t ~req ~parent:0 "dml" in
  let t0 = now () in
  (* a statement the server refused is refused here too, changing nothing *)
  (try
     refresh { rp = t; req; sid; acc = [] } c;
     ignore (S.run c.s text)
   with Err.Mad_error _ -> ());
  c.last_epoch <- Database.epoch t.db;
  close t0 (now ())

let atom_types t = List.length (Database.atom_type_names t.db)

(** The CSR snapshot's delta-maintenance counters, from this process's
    default registry (the server's exposition does not carry them). *)
let snapshot_counters () =
  let reg = Mad_obs.Obs.registry (Mad_obs.Obs.default ()) in
  ( Mad_obs.Registry.counter_value reg "snapshot.delta_applied",
    Mad_obs.Registry.counter_value reg "snapshot.rebuild" )

let span_json t (s : span) =
  let us x = Float.round ((x -. t.base) *. 1e6) in
  Mad_obs.Json.(
    Obj
      [
        ("req", Num (float_of_int s.req));
        ("id", Num (float_of_int s.id));
        ("parent", Num (float_of_int s.parent));
        ("name", Str s.name);
        ("start_us", Num (us s.t0));
        ("end_us", Num (us s.t1));
      ])

(** Write the kept spans as JSON lines, oldest first. *)
let save_spans t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s : span) ->
          output_string oc (Mad_obs.Json.to_string (span_json t s));
          output_char oc '\n')
        (List.rev t.spans))
