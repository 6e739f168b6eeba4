(** A [madql serve] child process on a fresh data directory: spawned,
    ready at its first Pong, killed and reaped at the end.  Every live
    child is also killed when the benchmark exits, whatever the path. *)

type t = { pid : int; port : int; out : Unix.file_descr; mutable live : bool }

(** The shipped server configuration the benchmark measures, after
    [-d DUMP --data DIR]: an ephemeral loopback port and two worker
    domains.  Durable stores acknowledge commits through the
    group-commit coordinator, which fsyncs the WAL per batch. *)
let flags = [ "--port"; "0"; "--workers"; "2" ]

let fsync_policy = "group commit: one WAL fsync per coordinator batch"
let children : t list ref = ref []

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let kill t =
  if t.live then begin
    t.live <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (restart_on_eintr (fun () -> Unix.waitpid [] t.pid))
     with Unix.Unix_error _ -> ());
    (try Unix.close t.out with Unix.Unix_error _ -> ());
    children := List.filter (fun c -> c.pid <> t.pid) !children
  end

let kill_all () = List.iter kill !children

(* the child inherits no MAD_* knob, so it runs as shipped *)
let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"MAD_" kv))
  |> Array.of_list

(* "listening on 127.0.0.1:PORT (...)" — the server's readiness line *)
let port_of_line line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
    let j = ref (i + 1) in
    while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do
      incr j
    done;
    int_of_string_opt (String.sub line (i + 1) (!j - i - 1))

let read_port fd ~timeout =
  let buf = Buffer.create 128 and chunk = Bytes.create 256 in
  let deadline = Clock.now () +. timeout in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i -> (
      match port_of_line (String.sub s 0 i) with
      | Some p -> p
      | None -> failwith ("unexpected server output: " ^ String.sub s 0 i))
    | None ->
      let left = deadline -. Clock.now () in
      if left <= 0.0 then failwith "server did not report its port";
      (match restart_on_eintr (fun () -> Unix.select [ fd ] [] [] left) with
       | [], _, _ -> ()
       | _ ->
         let n = restart_on_eintr (fun () -> Unix.read fd chunk 0 256) in
         if n = 0 then failwith "server exited before listening";
         Buffer.add_subbytes buf chunk 0 n);
      go ()
  in
  go ()

let connect port =
  match Mad_serve.Client.connect ~timeout:120.0 ~host:"127.0.0.1" port with
  | Ok c -> c
  | Error e ->
    failwith
      (Format.asprintf "connect: %a" Mad_serve.Client.pp_connect_error e)

(** Spawn [madql serve -d dump --data data] and wait for its first
    Pong on a new connection.  Returns the child, that connection and
    the set-up time in seconds: from just before the spawn to the
    Pong. *)
let spawn ~madql ~dump ~data ~log =
  let t0 = Clock.now () in
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let argv =
    Array.of_list (madql :: "serve" :: "-d" :: dump :: "--data" :: data :: flags)
  in
  let pid = Unix.create_process_env madql argv (child_env ()) null w err in
  Unix.close w;
  Unix.close null;
  Unix.close err;
  let pending = { pid; port = 0; out = r; live = true } in
  children := pending :: !children;
  let port =
    try read_port r ~timeout:120.0
    with e ->
      kill pending;
      raise e
  in
  let t = { pending with port } in
  children := t :: List.filter (fun c -> c.pid <> pid) !children;
  let c = connect port in
  if not (Mad_serve.Client.ping c) then failwith "server did not answer Ping";
  (t, c, Clock.now () -. t0)

(** Peak resident set (VmHWM) of the child, in MiB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> 0.0
      in
      go ())
