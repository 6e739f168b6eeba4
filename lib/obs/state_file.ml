(** Side-state files: one header-checked line format, one atomic
    writer, one loader with one error policy.  See the interface. *)

type t = { kind : string; version : int }

let path dir sf = Filename.concat dir (sf.kind ^ ".mad")
let header sf = Printf.sprintf "# MAD %s v%d" sf.kind sf.version

(* ------------------------------------------------------------------ *)
(* Fields                                                               *)

(* bytes that would split a record or a composite field *)
let special c = c <= ' ' || c = '%' || c = ',' || c = '=' || c = '\127'

let encode s =
  if s = "" then "-"
  else if s = "-" then "%2D"
  else if not (String.exists special s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if special c then Printf.bprintf buf "%%%02X" (Char.code c)
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let decode s =
  if s = "-" then ""
  else if not (String.contains s '%') then s
  else begin
    let n = String.length s in
    let buf = Buffer.create n in
    let rec go i =
      if i < n then
        match
          if s.[i] = '%' && i + 2 < n then
            int_of_string_opt ("0x" ^ String.sub s (i + 1) 2)
          else None
        with
        | Some c ->
          Buffer.add_char buf (Char.chr c);
          go (i + 3)
        | None ->
          Buffer.add_char buf s.[i];
          go (i + 1)
    in
    go 0;
    Buffer.contents buf
  end

let float_field = Printf.sprintf "%.17g"

(* ------------------------------------------------------------------ *)
(* Records                                                              *)

let to_string sf records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header sf);
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (String.concat " " r);
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

let fields line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let of_string sf text =
  match String.split_on_char '\n' text with
  | [] | [ "" ] -> Error "empty file"
  | first :: lines when first = header sf ->
    (* every written line ends in a newline, so a non-empty last piece
       is a record cut off mid-write *)
    let rec go acc = function
      | [] -> (List.rev acc, 0)
      | [ last ] -> (List.rev acc, if last = "" then 0 else 1)
      | line :: rest ->
        go (match fields line with [] -> acc | r -> r :: acc) rest
    in
    Ok (go [] lines)
  | first :: _ -> Error (Printf.sprintf "header %S is not %S" first (header sf))

let fold step init records =
  List.fold_left
    (fun (acc, skipped) r ->
      match step acc r with
      | acc -> (acc, skipped)
      | exception Failure _ -> (acc, skipped + 1))
    (init, 0) records

(* ------------------------------------------------------------------ *)
(* Files                                                                *)

let write_atomically path text =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  match
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.write_substring fd text 0 (String.length text));
        Unix.fsync fd);
    Unix.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Unix.unlink tmp with Unix.Unix_error _ -> ());
    raise e

let report p msg = Printf.eprintf "mad: %s: %s\n%!" p msg

let save sf dir records =
  let p = path dir sf in
  try write_atomically p (to_string sf records)
  with Unix.Unix_error (e, _, _) ->
    report p ("not saved: " ^ Unix.error_message e)

let load sf dir merge =
  let p = path dir sf in
  match In_channel.with_open_bin p In_channel.input_all with
  | exception Sys_error _ when not (Sys.file_exists p) -> false
  | exception Sys_error msg ->
    (* the message already names the file *)
    Printf.eprintf "mad: %s; ignored\n%!" msg;
    false
  | text -> (
    match of_string sf text with
    | Error why ->
      report p (why ^ "; ignored");
      false
    | Ok (records, torn) ->
      let skipped = torn + merge records in
      if skipped > 0 then
        report p (Printf.sprintf "%d malformed record(s) skipped" skipped);
      true)
