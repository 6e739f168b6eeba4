(** The three workloads, generated from the seed: the database (dumped
    to a [.mad] file — the only data the server receives), the
    statement streams, and the expected answers the output checks
    compare against.  Why each workload exists is in README.md. *)

open Mad_store

type kind = Select_geo | Explode_bom | Mixed_geo

let names = [ ("select-geo", Select_geo); ("explode-bom", Explode_bom); ("mixed-geo", Mixed_geo) ]

type read = {
  text : string;
  expect : string list;
      (** sorted labels the answer must carry: the root atoms of a
          molecule-type answer, every member of a recursive one *)
}

type write = { w_text : string; inserted : string option }

type t = {
  kind : kind;
  name : string;
  sizes : (string * int) list;  (** stamped into the result *)
  db : Database.t;  (** the generated database (the dump's content) *)
  read : int -> read;  (** the i-th statement of the closed-loop reader *)
  distinct_reads : int;
  episode_reads : int;  (** timed reads per episode (per fresh server) *)
  writer : (int -> unit -> write) option;
      (** mixed-geo's open-loop writer: the statement stream of an episode *)
  rate : float;  (** writer statements per second (0 without a writer) *)
  inserted_type : string option;  (** the atom type the writer inserts *)
  warmup : int;  (** leading statements excluded from timing *)
}

(* --- answers ------------------------------------------------------- *)

(* the bracketed atom label of one rendered line: "state @71[S003]" *)
let label_of_line line =
  match String.index_opt line '[' with
  | None -> None
  | Some i -> (
    match String.index_from_opt line i ']' with
    | None -> None
    | Some j -> Some (String.sub line (i + 1) (j - i - 1)))

let lines s = List.tl (String.split_on_char '\n' s)

(** Sorted labels of the root lines ([prefix] at column 0) of a
    rendered molecule-type answer. *)
let root_labels ~prefix answer =
  lines answer
  |> List.filter (String.starts_with ~prefix)
  |> List.filter_map label_of_line
  |> List.sort_uniq String.compare

(** Sorted labels of every line of a rendered recursive answer. *)
let member_labels answer =
  lines answer |> List.filter_map label_of_line |> List.sort_uniq String.compare

let labels t answer =
  match t.kind with
  | Select_geo | Mixed_geo -> root_labels ~prefix:"state @" answer
  | Explode_bom -> member_labels answer

(** The answer with its generated molecule-type name blanked out: the
    name comes from a per-process counter, the rest is the result. *)
let normalize answer =
  let key = "molecule type " in
  let first, rest =
    match String.index_opt answer '\n' with
    | Some i -> (String.sub answer 0 i, String.sub answer i (String.length answer - i))
    | None -> (answer, "")
  in
  let k = String.length key in
  let rec find i =
    if i + k > String.length first then first
    else if String.sub first i k = key then
      let j = ref (i + k) in
      while !j < String.length first && first.[!j] <> ' ' && first.[!j] <> ':' do
        incr j
      done;
      String.sub first 0 (i + k) ^ "_"
      ^ String.sub first !j (String.length first - !j)
    else find (i + 1)
  in
  find 0 ^ rest

(* --- generation ---------------------------------------------------- *)

let str_attr (a : Atom.t) i =
  match a.Atom.values.(i) with Value.String s -> s | v -> Value.to_string v

let int_attr (a : Atom.t) i =
  match a.Atom.values.(i) with Value.Int n -> n | _ -> 0

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let geo_text pred =
  Printf.sprintf "SELECT ALL FROM state-area-edge-point WHERE %s;" pred

type geo_kind = Name | Pair | Top | Bottom | All

(** A seeded stream of state-area-edge-point reads following a fixed
    pattern of kinds, so every seed gets the same mix: [Name] and [Pair]
    restrict by one or two state names, [Top] and [Bottom] by an area
    threshold selecting one to four states, [All] is unrestricted.  Each
    kind draws its texts from its own shuffled list; pairs give 1024
    distinct texts. *)
let geo_stream rng db pattern =
  let states =
    Database.atoms db "state"
    |> List.map (fun a -> (str_attr a 0, int_attr a 1))
    |> Array.of_list
  in
  let ns = Array.length states in
  let read pred expect =
    { text = geo_text pred; expect = List.sort_uniq String.compare expect }
  in
  let where f = Array.to_list states |> List.filter f |> List.map fst in
  let names = shuffle rng (Array.map fst states) in
  let pairs =
    let seen = Hashtbl.create 1024 and out = ref [] in
    while Hashtbl.length seen < min 1024 (ns * (ns - 1) / 2) do
      let a = names.(Random.State.int rng ns) and b = names.(Random.State.int rng ns) in
      if a < b && not (Hashtbl.mem seen (a, b)) then begin
        Hashtbl.add seen (a, b) ();
        out := read (Printf.sprintf "state.name = '%s' OR state.name = '%s'" a b) [ a; b ] :: !out
      end
    done;
    shuffle rng (Array.of_list !out)
  in
  (* every threshold that selects between one and four states *)
  let thresholds op sel =
    let hs = Array.map snd states |> Array.to_list |> List.sort_uniq compare in
    List.concat_map
      (fun h ->
        let e = where (fun (_, x) -> sel x h) in
        let n = List.length e in
        if n >= 1 && n <= 4 then [ read (Printf.sprintf "state.hectare %s %d" op h) e ]
        else [])
      (List.concat_map (fun h -> [ h - 1; h; h + 1 ]) hs |> List.sort_uniq compare)
    |> Array.of_list |> shuffle rng
  in
  let lists =
    [
      (Name, Array.map (fun a -> read (Printf.sprintf "state.name = '%s'" a) [ a ]) names);
      (Pair, pairs);
      (Top, thresholds ">" (fun x h -> x > h));
      (Bottom, thresholds "<" (fun x h -> x < h));
      ( All,
        [|
          {
            text = "SELECT ALL FROM state-area-edge-point;";
            expect = List.sort String.compare (where (fun _ -> true));
          };
        |] );
    ]
  in
  let cursor = Hashtbl.create 5 in
  Array.init 8192 (fun i ->
      let kind = pattern.(i mod Array.length pattern) in
      let l = List.assoc kind lists in
      let c = Option.value (Hashtbl.find_opt cursor kind) ~default:0 in
      Hashtbl.replace cursor kind (c + 1);
      l.(c mod Array.length l))

let distinct stream =
  let h = Hashtbl.create 1024 in
  Array.iter (fun r -> Hashtbl.replace h r.text ()) stream;
  Hashtbl.length h

let geo ~rows ~cols ~seed =
  Workloads.Geo_gen.build
    {
      Workloads.Geo_gen.default with
      rows;
      cols;
      rivers = rows;
      river_len = 6;
      cities = 2 * rows;
      seed;
    }

let points db = Database.atom_ids db "point" |> Aid.Set.elements |> Array.of_list

let city_insert points rng prefix i =
  let name = Printf.sprintf "%s%06d" prefix i in
  let pt = points.(Random.State.int rng (Array.length points)) in
  {
    w_text =
      Printf.sprintf "INSERT INTO city VALUES ('%s', %d) LINK city-point @%d;"
        name (1000 + Random.State.int rng 100_000) pt;
    inserted = Some name;
  }

let db_sizes db =
  [ ("atoms", Database.total_atoms db); ("links", Database.total_links db) ]

let warmup ~smoke = if smoke then 4 else 32
let episode ~smoke n = if smoke then 40 else n

let select_geo ~smoke ~seed =
  let side = if smoke then 3 else 12 in
  let g = geo ~rows:side ~cols:side ~seed in
  let db = g.Workloads.Geo_grid.db in
  let rng = Random.State.make [| seed; 1 |] in
  let stream = geo_stream rng db [| Pair; Name; Pair; Top; Pair; Name; Pair; Bottom |] in
  {
    kind = Select_geo;
    name = "select-geo";
    sizes = [ ("grid_rows", side); ("grid_cols", side) ] @ db_sizes db;
    db;
    read = (fun i -> stream.(i mod Array.length stream));
    distinct_reads = distinct stream;
    episode_reads = episode ~smoke 500;
    writer = None;
    rate = 0.0;
    inserted_type = None;
    warmup = warmup ~smoke;
  }

let explode_bom ~smoke ~seed =
  let depth, width, fanout = if smoke then (3, 4, 2) else (7, 32, 3) in
  let b =
    Workloads.Bom_gen.build { Workloads.Bom_gen.depth; width; fanout; share = 0.5; seed }
  in
  let db = b.Workloads.Bom_gen.db in
  let pname id = str_attr (Database.atom db id) 0 in
  let rng = Random.State.make [| seed; 1 |] in
  let roots level = Array.to_list b.Workloads.Bom_gen.levels.(level) in
  let read view closure root =
    {
      text =
        Printf.sprintf
          "SELECT ALL FROM part RECURSIVE BY composition%s WHERE part.pname = '%s';"
          view (pname root);
      expect =
        Aid.Set.elements (closure b root) |> List.map pname
        |> List.sort_uniq String.compare;
    }
  in
  let pool =
    Array.of_list
      (List.map (read "" Workloads.Bom_gen.explosion_reference) (roots 0)
      @ List.map
          (read " SUPER" Workloads.Bom_gen.where_used_reference)
          (roots (depth - 1)))
  in
  let order =
    Array.init 4096 (fun _ -> Random.State.int rng (Array.length pool))
  in
  {
    kind = Explode_bom;
    name = "explode-bom";
    sizes =
      [ ("bom_depth", depth); ("bom_width", width); ("bom_fanout", fanout) ]
      @ db_sizes db;
    db;
    read = (fun i -> pool.(order.(i mod Array.length order)));
    distinct_reads = Array.length pool;
    episode_reads = episode ~smoke 500;
    writer = None;
    rate = 0.0;
    inserted_type = None;
    warmup = warmup ~smoke;
  }

(** The open-loop writer's statement stream, in a fixed pattern of
    kinds so every seed gets the same mix: city inserts linked to a grid
    point (4 in 10), state area updates (3 in 10), and an area-edge link
    taken away and put back by turns (3 in 10) — links the reader's
    state-area-edge-point reads traverse.  The seed picks the cities'
    points, the states, the areas and the links.  Generated on demand;
    deterministic for a seed and episode as long as every statement
    succeeds. *)
let mixed_writer db seed episode =
  let rng = Random.State.make [| seed; 3; episode |] in
  let states = Database.atoms db "state" |> List.map (fun a -> str_attr a 0) |> Array.of_list in
  let area_edges = Array.of_list (Database.links db "area-edge") in
  let pts = points db in
  let unlinked = ref None in
  let k = ref 0 in
  fun () ->
    incr k;
    match !k mod 10 with
    | 0 | 3 | 5 | 7 -> city_insert pts rng "W" !k
    | 1 | 4 | 8 ->
      {
        w_text =
          Printf.sprintf "MODIFY state.hectare = %d FROM state WHERE state.name = '%s';"
            (100 + Random.State.int rng 1900)
            states.(Random.State.int rng (Array.length states));
        inserted = None;
      }
    | _ -> (
      match !unlinked with
      | Some (a, e) ->
        unlinked := None;
        { w_text = Printf.sprintf "LINK area-edge @%d @%d;" a e; inserted = None }
      | None ->
        let a, e = area_edges.(Random.State.int rng (Array.length area_edges)) in
        unlinked := Some (a, e);
        { w_text = Printf.sprintf "UNLINK area-edge @%d @%d;" a e; inserted = None })

let mixed_geo ~smoke ~seed =
  let side = if smoke then 3 else 6 in
  let g = geo ~rows:side ~cols:side ~seed in
  let db = g.Workloads.Geo_grid.db in
  let rng = Random.State.make [| seed; 1 |] in
  (* one read in four restricted, by name (the writer changes areas):
     enough Σ to grow the schema, few enough that the writer's lock
     waits stay below its period *)
  let stream = geo_stream rng db [| Name; All; All; All; Pair; All; All; All |] in
  let rate = if smoke then 20.0 else 50.0 in
  {
    kind = Mixed_geo;
    name = "mixed-geo";
    sizes = [ ("grid_rows", side); ("grid_cols", side) ] @ db_sizes db;
    db;
    read = (fun i -> stream.(i mod Array.length stream));
    distinct_reads = distinct stream;
    episode_reads = episode ~smoke 400;
    writer = Some (mixed_writer db seed);
    rate;
    inserted_type = Some "city";
    warmup = warmup ~smoke;
  }

let make kind ~smoke ~seed =
  match kind with
  | Select_geo -> select_geo ~smoke ~seed
  | Explode_bom -> explode_bom ~smoke ~seed
  | Mixed_geo -> mixed_geo ~smoke ~seed

(** The read that lists every atom of the writer's inserted type. *)
let inserted_query ty = Printf.sprintf "SELECT ALL FROM %s;" ty

(** Labels of the inserted atoms an answer to [inserted_query] lists. *)
let inserted_labels ty answer = root_labels ~prefix:(ty ^ " @") answer

(** Labels of the atoms of type [ty] of a (recovered) database. *)
let atom_labels ty db = Database.atoms db ty |> List.map (fun a -> str_attr a 0)
