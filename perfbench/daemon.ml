(* A `bidir serve` daemon run as a child process over a local socket:
   start it, learn its ephemeral port from its banner, read its
   /metrics registry and peak resident set, and shut it down. *)

open Perfbench_core
module Json = Telemetry.Json

type t = { pid : int; port : int; err : Unix.file_descr }

let children : t list ref = ref []

let reap pid =
  let rec go tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      go (tries - 1)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go tries
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go 500

let forget d =
  children := List.filter (fun c -> c.pid <> d.pid) !children;
  (try Unix.close d.err with Unix.Unix_error _ -> ())

(* Whatever happens to the benchmark, no daemon outlives it. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap d.pid)
        !children)

(* One line from [fd], at most until [deadline] (Unix time). *)
let read_line fd ~deadline =
  let buf = Buffer.create 128 and byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then failwith "no line before the deadline";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
      match Unix.read fd byte 0 1 with
      | 0 -> failwith "end of stream before a line"
      | _ when Bytes.get byte 0 = '\n' -> Buffer.contents buf
      | _ ->
        Buffer.add_char buf (Bytes.get byte 0);
        go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* The daemon's banner, "serve: listening on http://host:PORT", comes
   after it has bound its socket and prewarmed its pool. *)
let read_port fd =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    let l = read_line fd ~deadline in
    match String.rindex_opt l ':' with
    | Some i when String.starts_with ~prefix:"serve: listening" l ->
      int_of_string (String.sub l (i + 1) (String.length l - i - 1))
    | _ -> go ()
  in
  go ()

let start ~cli ~domains =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--domains"; string_of_int domains; "--host";
         "127.0.0.1"; "--port"; "0" |]
      null null w
  in
  Unix.close w;
  Unix.close null;
  let d = { pid; port = 0; err = r } in
  children := d :: !children;
  let port = read_port r in
  let d = { d with port } in
  children := d :: List.filter (fun c -> c.pid <> pid) !children;
  d

let get d path =
  let c = Http_client.connect ~port:d.port in
  Fun.protect
    ~finally:(fun () -> Http_client.close c)
    (fun () ->
      Http_client.request c
        (Printf.sprintf "%s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" path))

(* A metrics registry's counters and histogram (count, sum) pairs. *)
type snap = {
  counters : (string * int) list;
  hists : (string * (int * float)) list;
}

let metrics d =
  let status, body = get d "GET /metrics" in
  if status <> 200 then failwith "serve daemon: /metrics failed";
  let field name j =
    match Json.member name j with Some (Json.Obj kv) -> kv | _ -> []
  in
  match Json.parse body with
  | Error e -> failwith ("serve daemon: /metrics: " ^ e)
  | Ok j ->
    { counters =
        List.filter_map
          (fun (k, v) -> match v with Json.Int n -> Some (k, n) | _ -> None)
          (field "counters" j);
      hists =
        List.filter_map
          (fun (k, h) ->
            match (Json.member "count" h, Json.member "sum" h) with
            | Some (Json.Int c), Some (Json.Float s) -> Some (k, (c, s))
            | Some (Json.Int c), Some (Json.Int s) ->
              Some (k, (c, float_of_int s))
            | _ -> None)
          (field "histograms" j);
    }

(* Peak resident set of a process in MB, from /proc. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      go ())

let daemon_peak_rss_mb d = peak_rss_mb (string_of_int d.pid)

let stop d =
  (try ignore (get d "POST /shutdown" : int * string)
   with Unix.Unix_error _ | Http_client.Bad_response _ -> ());
  reap d.pid;
  forget d
