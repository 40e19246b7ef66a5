(* Tests for the serving plane: HTTP framing, query parsing, the
   memo-backed batch service, and an end-to-end socket smoke against a
   daemon running in another domain. *)

module Http = Serve.Http
module Query = Serve.Query
module Json = Telemetry.Json

(* ------------------------------------------------------------------ *)
(* HTTP framing                                                        *)
(* ------------------------------------------------------------------ *)

let test_http_parse_get () =
  let raw =
    "GET /v1/sumrate?power_db=10&g_ab=0&protocol=TDBC HTTP/1.1\r\n\
     Host: localhost\r\n\
     \r\n"
  in
  match Http.parse raw with
  | Http.Complete (r, consumed) ->
    Alcotest.(check string) "meth" "GET" r.Http.meth;
    Alcotest.(check string) "path" "/v1/sumrate" r.Http.path;
    Alcotest.(check (list (pair string string)))
      "params"
      [ ("power_db", "10"); ("g_ab", "0"); ("protocol", "TDBC") ]
      r.Http.params;
    Alcotest.(check string) "body" "" r.Http.body;
    Alcotest.(check int) "consumed everything" (String.length raw) consumed;
    Alcotest.(check (option string))
      "header lookup is case-insensitive" (Some "localhost")
      (Http.header r "HOST");
    Alcotest.(check bool) "keep-alive by default" false (Http.wants_close r)
  | Http.Incomplete -> Alcotest.fail "incomplete"
  | Http.Invalid m -> Alcotest.failf "invalid: %s" m

let test_http_parse_post_body () =
  let body = "{\"kind\":\"select\",\"power_db\":5}" in
  let raw =
    Printf.sprintf
      "POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  match Http.parse raw with
  | Http.Complete (r, consumed) ->
    Alcotest.(check string) "meth" "POST" r.Http.meth;
    Alcotest.(check string) "body" body r.Http.body;
    Alcotest.(check int) "consumed" (String.length raw) consumed
  | _ -> Alcotest.fail "expected complete request"

let test_http_pipelined () =
  let one = "GET /healthz HTTP/1.1\r\n\r\n" in
  let raw = one ^ "GET /metrics HTTP/1.1\r\n\r\n" in
  match Http.parse raw with
  | Http.Complete (r, consumed) ->
    Alcotest.(check string) "first request" "/healthz" r.Http.path;
    Alcotest.(check int) "consumed only the first" (String.length one)
      consumed;
    let rest = String.sub raw consumed (String.length raw - consumed) in
    (match Http.parse rest with
    | Http.Complete (r2, _) ->
      Alcotest.(check string) "second request" "/metrics" r2.Http.path
    | _ -> Alcotest.fail "second request did not parse")
  | _ -> Alcotest.fail "first request did not parse"

let test_http_incomplete_and_invalid () =
  (match Http.parse "GET /x HTTP/1.1\r\nHost: a" with
  | Http.Incomplete -> ()
  | _ -> Alcotest.fail "truncated head should be Incomplete");
  (match
     Http.parse "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
   with
  | Http.Incomplete -> ()
  | _ -> Alcotest.fail "short body should be Incomplete");
  (match Http.parse "FETCH\r\n\r\n" with
  | Http.Invalid _ -> ()
  | _ -> Alcotest.fail "bad request line should be Invalid");
  (match Http.parse "GET /x HTTP/2.0\r\n\r\n" with
  | Http.Invalid _ -> ()
  | _ -> Alcotest.fail "unsupported version should be Invalid");
  (match
     Http.parse ~max_body:8
       "POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789"
   with
  | Http.Invalid _ -> ()
  | _ -> Alcotest.fail "oversized body should be Invalid");
  (* Content-Length is 1*DIGIT: OCaml integer literals must not frame *)
  List.iter
    (fun v ->
      match
        Http.parse
          (Printf.sprintf "POST /x HTTP/1.1\r\nContent-Length: %s\r\n\r\nab" v)
      with
      | Http.Invalid e ->
        Alcotest.(check string) v ("bad content-length: " ^ v) e
      | _ -> Alcotest.failf "Content-Length %S should be Invalid" v)
    [ "0x2"; "0b10"; "0_2"; "0u2"; "+2"; "-0" ]

let test_http_url_decode () =
  Alcotest.(check string)
    "percent and plus" "a b+c%" (Http.url_decode "a%20b%2Bc%25");
  Alcotest.(check string) "plus is space" "a b" (Http.url_decode "a+b")

let test_http_response_roundtrip () =
  let body = "{\"x\":1}" in
  let raw = Http.response body in
  Alcotest.(check bool) "status line" true
    (String.length raw > 15 && String.sub raw 0 15 = "HTTP/1.1 200 OK");
  let has_len =
    Printf.sprintf "Content-Length: %d" (String.length body)
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "content-length header" true (contains raw has_len);
  Alcotest.(check bool) "body at the end" true
    (String.sub raw (String.length raw - String.length body)
       (String.length body)
    = body)

(* ------------------------------------------------------------------ *)
(* Query parsing and evaluation                                        *)
(* ------------------------------------------------------------------ *)

let get_exn = function
  | Ok q -> q
  | Error e -> Alcotest.failf "unexpected query error: %s" e

let test_query_params_roundtrip () =
  let q =
    get_exn
      (Query.of_params ~kind:"region"
         [ ("power_db", "5");
           ("g_ab", "1");
           ("g_ar", "4");
           ("g_br", "6");
           ("bound", "outer");
           ("protocol", "MABC");
           ("weights", "17");
         ])
  in
  (* the JSON echo round-trips to the same canonical key *)
  let q2 = get_exn (Query.of_json (Query.to_json q)) in
  Alcotest.(check string) "params/json same key" (Query.key q) (Query.key q2)

let test_query_defaults_and_validation () =
  let q = get_exn (Query.of_params ~kind:"sumrate" []) in
  let dflt = get_exn (Query.make ~kind:Query.Sumrate ()) in
  Alcotest.(check string) "defaults" (Query.key dflt) (Query.key q);
  let expect_error = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected a validation error"
  in
  expect_error (Query.of_params ~kind:"sumrate" [ ("power_db", "999") ]);
  expect_error (Query.of_params ~kind:"sumrate" [ ("power_db", "lots") ]);
  expect_error (Query.of_params ~kind:"sumrate" [ ("volume", "11") ]);
  expect_error (Query.of_params ~kind:"region" []);
  (* region requires a protocol *)
  expect_error (Query.of_params ~kind:"dance" []);
  expect_error
    (Query.of_json (Json.Obj [ ("power_db", Json.Int 1) ]) (* no kind *))

let test_query_eval_deterministic () =
  (* same query, same bytes — including through a cleared cache *)
  let q = get_exn (Query.make ~kind:Query.Select ~power_db:5. ()) in
  let a = Json.to_string (Query.eval q) in
  Engine.Memo.clear_all ();
  let b = Json.to_string (Query.eval q) in
  Alcotest.(check string) "eval byte-stable across cache clears" a b

(* ------------------------------------------------------------------ *)
(* Service: memo-backed batching                                       *)
(* ------------------------------------------------------------------ *)

let hits () = Telemetry.Metrics.value (Telemetry.Metrics.counter "serve.cache_hits")
let misses () = Telemetry.Metrics.value (Telemetry.Metrics.counter "serve.cache_misses")

let test_service_cache_and_batches () =
  Engine.Memo.clear_all ();
  let q1 = get_exn (Query.make ~kind:Query.Sumrate ~power_db:0. ()) in
  let q2 = get_exn (Query.make ~kind:Query.Sumrate ~power_db:10. ()) in
  let h0 = hits () and m0 = misses () in
  (* a batch with an internal duplicate: the duplicate is neither a
     hit nor a miss, and both copies get the same body *)
  (match Serve.Service.respond_batch [ q1; q2; q1 ] with
  | [ b1; b2; b3 ] ->
    Alcotest.(check string) "duplicate shares the body" b1 b3;
    Alcotest.(check bool) "distinct queries differ" true (b1 <> b2)
  | l -> Alcotest.failf "expected 3 bodies, got %d" (List.length l));
  Alcotest.(check int) "no hits on a cold cache" 0 (hits () - h0);
  Alcotest.(check int) "two unique misses" 2 (misses () - m0);
  (* the same batch again: all hits, same bytes *)
  let again = Serve.Service.respond_batch [ q1; q2; q1 ] in
  Alcotest.(check int) "three hits when warm" 3 (hits () - h0);
  Alcotest.(check int) "no new misses" 2 (misses () - m0);
  Alcotest.(check (list string))
    "warm bytes equal cold bytes" (Serve.Service.respond_batch [ q1; q2; q1 ])
    again;
  Alcotest.(check bool) "cache populated" true (Serve.Service.cache_length () >= 2);
  (* single-query front door agrees with the batch *)
  Alcotest.(check string) "respond = respond_batch head"
    (List.nth again 0) (Serve.Service.respond q1)

let test_service_batch_matches_sequential () =
  Engine.Memo.clear_all ();
  let pool = Serve.Scenarios.check_pool () in
  let batched = Serve.Service.respond_batch pool in
  Engine.Memo.clear_all ();
  let sequential = List.map Serve.Service.respond pool in
  Alcotest.(check (list string)) "batched = sequential" sequential batched

(* The response cache is a memo table like every other: [clear_all]
   empties it, and a repeat of the cold batch, answered from the table,
   gives the same bytes. *)
let test_service_cache_cleared () =
  let pool = Serve.Scenarios.check_pool () in
  ignore (Serve.Service.respond_batch pool : string list);
  Engine.Memo.clear_all ();
  Alcotest.(check int) "empty after clear_all" 0 (Serve.Service.cache_length ());
  let cold = Serve.Service.respond_batch pool in
  let h0 = hits () in
  Alcotest.(check (list string)) "repeat = cold bytes" cold
    (Serve.Service.respond_batch pool);
  Alcotest.(check int) "repeat is all hits" (List.length pool) (hits () - h0)

let test_service_envelope_shape () =
  let q = get_exn (Query.make ~kind:Query.Sumrate ()) in
  match Json.parse (Serve.Service.respond q) with
  | Error m -> Alcotest.failf "body is not JSON: %s" m
  | Ok j ->
    Alcotest.(check bool) "schema tag" true
      (Json.member "schema" j = Some (Json.String "bidir-serve/1"));
    Alcotest.(check bool) "query echo present" true
      (Json.member "query" j <> None);
    Alcotest.(check bool) "result present" true (Json.member "result" j <> None)

let test_scenarios_pick_deterministic () =
  let keys seed =
    let rng = Prob.Rng.create ~seed in
    List.init 50 (fun _ ->
        Query.key (Serve.Scenarios.pick rng Serve.Scenarios.default_mix))
  in
  Alcotest.(check (list string)) "same seed, same stream" (keys 7) (keys 7);
  Alcotest.(check bool) "different seeds diverge" true (keys 7 <> keys 8)

(* ------------------------------------------------------------------ *)
(* End-to-end: daemon in a domain, raw socket client                   *)
(* ------------------------------------------------------------------ *)

let recv_response sock buf =
  (* read until the Content-Length promise is met *)
  let chunk = Bytes.create 4096 in
  let rec go acc =
    match
      let marker = "\r\n\r\n" in
      let rec find i =
        if i + 4 > String.length acc then None
        else if String.sub acc i 4 = marker then Some i
        else find (i + 1)
      in
      find 0
    with
    | Some head_end ->
      let head = String.sub acc 0 head_end in
      let len =
        List.fold_left
          (fun acc line ->
            match String.index_opt line ':' with
            | Some i
              when String.lowercase_ascii (String.sub line 0 i)
                   = "content-length" ->
              int_of_string
                (String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> acc)
          0
          (String.split_on_char '\n' head)
      in
      let need = head_end + 4 + len in
      if String.length acc >= need then (
        let body = String.sub acc (head_end + 4) len in
        let leftover =
          String.sub acc need (String.length acc - need)
        in
        buf := leftover;
        (head, body))
      else begin
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n = 0 then Alcotest.fail "connection closed mid-response";
        go (acc ^ Bytes.sub_string chunk 0 n)
      end
    | None ->
      let n = Unix.read sock chunk 0 (Bytes.length chunk) in
      if n = 0 then Alcotest.fail "connection closed mid-head";
      go (acc ^ Bytes.sub_string chunk 0 n)
  in
  go !buf

let send_all sock s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write sock b off (Bytes.length b - off))
  in
  go 0

let test_server_end_to_end () =
  let port_file = Filename.temp_file "bidir-test-serve" ".port" in
  Sys.remove port_file;
  let daemon =
    Domain.spawn (fun () ->
        Serve.Server.run
          { Serve.Server.default_config with
            port = 0;
            port_file = Some port_file;
            quiet = true;
          })
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove port_file with Sys_error _ -> ())
  @@ fun () ->
  (* wait for the daemon to publish its ephemeral port *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec read_port () =
    match
      let ic = open_in port_file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> int_of_string (String.trim (input_line ic)))
    with
    | port -> port
    | exception _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "daemon never wrote its port file"
      else begin
        Unix.sleepf 0.02;
        read_port ()
      end
  in
  let port = read_port () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let buf = ref "" in
  (* healthz *)
  send_all sock "GET /healthz HTTP/1.1\r\n\r\n";
  let head, body = recv_response sock buf in
  Alcotest.(check bool) "healthz 200" true
    (String.length head >= 12 && String.sub head 9 3 = "200");
  (match Json.parse body with
  | Ok j -> Alcotest.(check bool) "healthz ok flag" true
              (Json.member "ok" j = Some (Json.Bool true))
  | Error m -> Alcotest.failf "healthz body: %s" m);
  (* two pipelined queries: a GET and the equivalent POST must answer
     in order, with byte-identical result objects *)
  let post_body = "{\"kind\":\"sumrate\",\"power_db\":5,\"protocol\":\"TDBC\"}" in
  send_all sock
    ("GET /v1/sumrate?power_db=5&protocol=TDBC HTTP/1.1\r\n\r\n"
    ^ Printf.sprintf "POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
        (String.length post_body) post_body);
  let _, body_get = recv_response sock buf in
  let _, body_post = recv_response sock buf in
  Alcotest.(check string) "GET and POST framing agree" body_get body_post;
  (* a malformed query is a 400, not a closed connection *)
  send_all sock "GET /v1/sumrate?power_db=lots HTTP/1.1\r\n\r\n";
  let head, _ = recv_response sock buf in
  Alcotest.(check bool) "bad query is 400" true (String.sub head 9 3 = "400");
  send_all sock "GET /nowhere HTTP/1.1\r\n\r\n";
  let head, _ = recv_response sock buf in
  Alcotest.(check bool) "unknown path is 404" true (String.sub head 9 3 = "404");
  (* shutdown: daemon answers, then exits; it served 2 query requests *)
  send_all sock "POST /shutdown HTTP/1.1\r\n\r\n";
  let head, _ = recv_response sock buf in
  Alcotest.(check bool) "shutdown 200" true (String.sub head 9 3 = "200");
  let served = Domain.join daemon in
  Alcotest.(check int) "query requests served" 2 served

let suites =
  [ ( "serve.http",
      [ Alcotest.test_case "GET with params" `Quick test_http_parse_get;
        Alcotest.test_case "POST with body" `Quick test_http_parse_post_body;
        Alcotest.test_case "pipelined requests" `Quick test_http_pipelined;
        Alcotest.test_case "incomplete and invalid" `Quick
          test_http_incomplete_and_invalid;
        Alcotest.test_case "url decoding" `Quick test_http_url_decode;
        Alcotest.test_case "response serialization" `Quick
          test_http_response_roundtrip;
      ] );
    ( "serve.query",
      [ Alcotest.test_case "params/json round-trip" `Quick
          test_query_params_roundtrip;
        Alcotest.test_case "defaults and validation" `Quick
          test_query_defaults_and_validation;
        Alcotest.test_case "eval byte-stable" `Quick
          test_query_eval_deterministic;
      ] );
    ( "serve.service",
      [ Alcotest.test_case "cache hits, duplicates, batches" `Quick
          test_service_cache_and_batches;
        Alcotest.test_case "batched equals sequential" `Quick
          test_service_batch_matches_sequential;
        Alcotest.test_case "clear_all empties the cache" `Quick
          test_service_cache_cleared;
        Alcotest.test_case "envelope shape" `Quick test_service_envelope_shape;
        Alcotest.test_case "scenario pick deterministic" `Quick
          test_scenarios_pick_deterministic;
      ] );
    ( "serve.daemon",
      [ Alcotest.test_case "end-to-end over a socket" `Quick
          test_server_end_to_end;
      ] );
  ]
