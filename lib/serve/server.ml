module Json = Telemetry.Json

type config = {
  host : string;
  port : int;
  port_file : string option;
  batch_max : int;
  max_requests : int option;
  allow_shutdown : bool;
  quiet : bool;
}

let default_config =
  { host = "127.0.0.1";
    port = 8090;
    port_file = None;
    batch_max = 64;
    max_requests = None;
    allow_shutdown = true;
    quiet = false;
  }

let connections_c = Telemetry.Metrics.counter "serve.connections"
let http_errors_c = Telemetry.Metrics.counter "serve.http_errors"
let request_seconds_h = Telemetry.Metrics.histogram "serve.request_seconds"

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable alive : bool;
}

(* What one parsed request resolves to before the batch round. *)
type payload =
  | Query of Query.t
  | Immediate of int * string  (* status, body *)
  | Shutdown_req

type item = {
  it_conn : conn;
  it_t0 : float;
  it_payload : payload;
  it_close : bool;
}

let write_all c s =
  let n = String.length s in
  let pos = ref 0 in
  (try
     while !pos < n do
       pos := !pos + Unix.write_substring c.fd s !pos (n - !pos)
     done
   with Unix.Unix_error _ -> c.alive <- false)

(* marking only: the fd is closed exactly once, when the dead
   connection is pruned at the end of the round (or at teardown) *)
let close_conn c = c.alive <- false

let bad_request msg =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.String "bidir-serve/1");
         ("error", Json.String msg);
       ])

let health served =
  Json.to_string
    (Json.Obj [ ("ok", Json.Bool true); ("requests", Json.Int served) ])

(* Resolve one parsed request to a payload. Query endpoints accept GET
   parameters or a JSON body carrying the same fields. *)
let route cfg ~served (req : Http.request) =
  let query_of kind =
    let parsed =
      if req.body = "" then Query.of_params ~kind req.params
      else
        match Json.parse req.body with
        | Ok (Json.Obj fields) ->
          Query.of_json
            (Json.Obj
               (("kind", Json.String kind) :: List.remove_assoc "kind" fields))
        | Ok _ -> Error "query body must be a JSON object"
        | Error e -> Error ("body: " ^ e)
    in
    match parsed with
    | Ok q -> Query q
    | Error e ->
      Telemetry.Metrics.incr http_errors_c;
      Immediate (400, bad_request e)
  in
  match (req.meth, req.path) with
  | ("GET" | "POST"), "/v1/sumrate" -> query_of "sumrate"
  | ("GET" | "POST"), "/v1/select" -> query_of "select"
  | ("GET" | "POST"), "/v1/region" -> query_of "region"
  | "POST", "/v1/query" -> (
    match Json.parse req.body with
    | Ok j -> (
      match Query.of_json j with
      | Ok q -> Query q
      | Error e ->
        Telemetry.Metrics.incr http_errors_c;
        Immediate (400, bad_request e))
    | Error e ->
      Telemetry.Metrics.incr http_errors_c;
      Immediate (400, bad_request ("body: " ^ e)))
  | "GET", "/healthz" -> Immediate (200, health served)
  | "GET", "/metrics" -> Immediate (200, Json.to_string (Telemetry.Metrics.to_json ()))
  | "POST", "/shutdown" when cfg.allow_shutdown -> Shutdown_req
  | _, _ ->
    Telemetry.Metrics.incr http_errors_c;
    Immediate (404, bad_request ("no such endpoint: " ^ req.meth ^ " " ^ req.path))

let write_port_file path port =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Printf.fprintf oc "%d\n" port;
  close_out oc;
  Sys.rename tmp path

let chunks k xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = k then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

let run cfg =
  (* a client hanging up mid-response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen srv 128;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  Option.iter (fun path -> write_port_file path port) cfg.port_file;
  if not cfg.quiet then
    Printf.eprintf "serve: listening on http://%s:%d\n%!" cfg.host port;
  let conns : conn list ref = ref [] in
  let served = ref 0 in
  let stop = ref false in
  let t_start = Unix.gettimeofday () in
  let read_buf = Bytes.create 65536 in
  (* read what a ready connection has, then parse every complete
     pipelined request off the front of its buffer *)
  let drain_conn c =
    let items = ref [] in
    (match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
    | 0 -> close_conn c
    | n -> Buffer.add_subbytes c.buf read_buf 0 n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c);
    let progress = ref c.alive in
    while !progress && Buffer.length c.buf > 0 do
      progress := false;
      let data = Buffer.contents c.buf in
      match Http.parse data with
      | Http.Incomplete -> ()
      | Http.Invalid msg ->
        Telemetry.Metrics.incr http_errors_c;
        write_all c (Http.response ~status:400 ~close:true (bad_request msg));
        close_conn c
      | Http.Complete (req, consumed) ->
        Buffer.clear c.buf;
        Buffer.add_substring c.buf data consumed (String.length data - consumed);
        let payload = route cfg ~served:!served req in
        items :=
          { it_conn = c;
            it_t0 = Unix.gettimeofday ();
            it_payload = payload;
            it_close = Http.wants_close req;
          }
          :: !items;
        progress := c.alive
    done;
    List.rev !items
  in
  while not !stop do
    let fds = srv :: List.map (fun c -> c.fd) !conns in
    let ready =
      match Unix.select fds [] [] 0.25 with
      | r, _, _ -> r
      | exception Unix.Unix_error (EINTR, _, _) -> []
    in
    if List.mem srv ready then begin
      match Unix.accept srv with
      | fd, _ ->
        if List.length !conns >= 256 then
          (* over the select budget: shed the newcomer *)
          (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          Telemetry.Metrics.incr connections_c;
          conns := { fd; buf = Buffer.create 1024; alive = true } :: !conns
        end
      | exception Unix.Unix_error _ -> ()
    end;
    let items =
      List.concat_map
        (fun c -> if List.mem c.fd ready then drain_conn c else [])
        (List.rev !conns)
    in
    (* answer the round's queries in pool batches; the answers come
       back in item order *)
    let queries =
      List.filter_map
        (fun it -> match it.it_payload with Query q -> Some q | _ -> None)
        items
    in
    let answers =
      ref (List.concat_map Service.respond_batch (chunks cfg.batch_max queries))
    in
    List.iter
      (fun it ->
        let status, body =
          match it.it_payload with
          | Query _ -> (
            incr served;
            match !answers with
            | body :: rest ->
              answers := rest;
              (200, body)
            | [] -> assert false)
          | Immediate (status, body) -> (status, body)
          | Shutdown_req ->
            stop := true;
            (200, Json.to_string (Json.Obj [ ("ok", Json.Bool true) ]))
        in
        if it.it_conn.alive then begin
          write_all it.it_conn
            (Http.response ~status ~close:it.it_close body);
          Telemetry.Metrics.observe request_seconds_h
            (Float.max 0. (Unix.gettimeofday () -. it.it_t0));
          if it.it_close then close_conn it.it_conn
        end)
      items;
    let dead, live = List.partition (fun c -> not c.alive) !conns in
    List.iter
      (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      dead;
    conns := live;
    (match cfg.max_requests with
    | Some cap when !served >= cap -> stop := true
    | _ -> ());
    if Telemetry.Live.is_open () then begin
      let elapsed = Unix.gettimeofday () -. t_start in
      Telemetry.Live.note_progress ~name:"serve" ~completed:!served
        ~total:(Option.value ~default:0 cfg.max_requests)
        ~rate:(if elapsed > 0. then float_of_int !served /. elapsed else 0.)
        ();
      Telemetry.Live.pulse_live ()
    end
  done;
  List.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    !conns;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  if not cfg.quiet then
    Printf.eprintf "serve: done, %d queries answered\n%!" !served;
  !served
