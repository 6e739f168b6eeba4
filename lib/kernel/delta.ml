(** Delta-maintenance patch log — see the interface for the contract. *)

open Mad_store

let forced_max : int option ref = ref None
let max_patches () = Option.value !forced_max ~default:4096
let set_max_patches n = forced_max := n

(* One raw patch, in op order.  [Attr] is kept only so the buffer
   length reflects the raw op volume; it never dirties a structure. *)
type patch =
  | P_link of { lt : string; left : Aid.t; right : Aid.t; add : bool }
  | P_atom of { atype : string; id : Aid.t; add : bool }
  | P_attr
  | P_schema

(* The per-database log: a bounded FIFO of (epoch, patch).  Epochs are
   contiguous — the tap fires on every emit — so the buffer covers
   exactly (base, last].  Overflow drops the oldest entries and
   advances [base]: old windows become unanswerable (None), recent
   ones stay exact. *)
type log = {
  mutable base : int;  (** epochs <= base are not covered *)
  buf : (int * patch) Queue.t;
}

(* Buffer bound: large enough that a log survives a burst well past
   the delta threshold (so the threshold verdict, not the overflow,
   decides), small enough to bound memory per live database. *)
let buf_cap = 16384

let patch_of_op (op : Database.op) =
  match op with
  | Database.Op_add_link { lt; left; right } ->
    P_link { lt; left; right; add = true }
  | Database.Op_remove_link { lt; left; right } ->
    P_link { lt; left; right; add = false }
  | Database.Op_insert_atom { atype; id; _ } -> P_atom { atype; id; add = true }
  | Database.Op_delete_atom { atype; id } -> P_atom { atype; id; add = false }
  | Database.Op_set_attr _ -> P_attr
  | Database.Op_define_atom_type _ | Database.Op_define_link_type _
  | Database.Op_drop_atom_type _ | Database.Op_drop_link_type _ ->
    P_schema

let record l epoch op =
  Queue.add (epoch, patch_of_op op) l.buf;
  while Queue.length l.buf > buf_cap do
    let e, _ = Queue.pop l.buf in
    l.base <- max l.base e
  done

(* Tracked databases: a small assoc list keyed on physical identity.
   The tap closure owns the log, so the log lives and dies with its
   database; this list only answers [tracked]/[window] lookups and is
   bounded so a test suite churning through databases cannot grow it
   (an evicted database keeps feeding its orphaned log — bounded by
   [buf_cap] — and is simply no longer delta-maintained). *)
let tracked_cap = 8
let tracked_logs : (Database.t * log) list ref = ref []

let find_log db =
  List.find_opt (fun (db', _) -> db' == db) !tracked_logs |> Option.map snd

let tracked db = find_log db <> None

let track db =
  if not (tracked db) then begin
    let l = { base = Database.epoch db; buf = Queue.create () } in
    Database.add_tap db (fun epoch op -> record l epoch op);
    tracked_logs :=
      (db, l)
      :: List.filteri (fun i _ -> i < tracked_cap - 1) !tracked_logs
  end

(* ------------------------------------------------------------------ *)
(* Windows: compaction on read                                          *)

type window = {
  w_links : (string, (Aid.t * Aid.t, bool) Hashtbl.t) Hashtbl.t;
  w_atoms : (string, (Aid.t, bool) Hashtbl.t) Hashtbl.t;
  w_count : int;  (** raw patches in the range *)
}

let window db ~from_epoch ~to_epoch =
  match find_log db with
  | None -> None
  | Some l ->
    if from_epoch < l.base || to_epoch < from_epoch then None
    else begin
      let w_links = Hashtbl.create 8 and w_atoms = Hashtbl.create 8 in
      let count = ref 0 in
      let schema = ref false in
      (* last-wins compaction: Queue iterates oldest first, and
         [Hashtbl.replace] keeps the final verdict per key *)
      Queue.iter
        (fun (e, p) ->
          if e > from_epoch && e <= to_epoch then begin
            incr count;
            match p with
            | P_link { lt; left; right; add } ->
              let tbl =
                match Hashtbl.find_opt w_links lt with
                | Some t -> t
                | None ->
                  let t = Hashtbl.create 16 in
                  Hashtbl.replace w_links lt t;
                  t
              in
              Hashtbl.replace tbl (left, right) add
            | P_atom { atype; id; add } ->
              let tbl =
                match Hashtbl.find_opt w_atoms atype with
                | Some t -> t
                | None ->
                  let t = Hashtbl.create 16 in
                  Hashtbl.replace w_atoms atype t;
                  t
              in
              Hashtbl.replace tbl id add
            | P_attr -> ()
            | P_schema -> schema := true
          end)
        l.buf;
      if !schema || !count > max_patches () then None
      else Some { w_links; w_atoms; w_count = !count }
    end

let touches_link w lt = Hashtbl.mem w.w_links lt
let touches_atype w at = Hashtbl.mem w.w_atoms at

let link_patches w lt =
  match Hashtbl.find_opt w.w_links lt with
  | None -> []
  | Some tbl -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let atom_patches w at =
  match Hashtbl.find_opt w.w_atoms at with
  | None -> []
  | Some tbl -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let patch_count w = w.w_count
