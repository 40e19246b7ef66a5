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

(* Properties of the framing. [drain] parses a byte stream the way
   the daemon's [drain_conn] does: append each chunk as it arrives,
   then take every complete request off the front of the buffer. *)
let drain chunks =
  let buf = Buffer.create 256 in
  let out = ref [] in
  List.iter
    (fun chunk ->
      Buffer.add_string buf chunk;
      let rec take () =
        let data = Buffer.contents buf in
        match Http.parse data with
        | Http.Complete (r, consumed) ->
          Buffer.clear buf;
          Buffer.add_substring buf data consumed (String.length data - consumed);
          out := r :: !out;
          take ()
        | Http.Incomplete | Http.Invalid _ -> ()
      in
      take ())
    chunks;
  List.rev !out

let param_text_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '9'; '_'; '.'; '-'; '%'; '+'; '='; 'F' ])
      (int_range 0 8))

let request_gen =
  let open QCheck.Gen in
  let get =
    map3
      (fun path params close ->
        let query =
          String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) params)
        in
        Printf.sprintf "GET %s%s HTTP/1.1\r\nHost: localhost\r\n%s\r\n" path
          (if params = [] then "" else "?" ^ query)
          (if close then "Connection: close\r\n" else ""))
      (oneofl [ "/v1/sumrate"; "/v1/select"; "/healthz" ])
      (list_size (int_range 0 4) (pair param_text_gen param_text_gen))
      bool
  in
  let post =
    map
      (fun body ->
        Printf.sprintf
          "POST /v1/query HTTP/1.1\r\ncontent-LENGTH:  %d \r\nX-Note: a:b\r\n\r\n%s"
          (String.length body) body)
      (string_size ~gen:(oneofl [ '{'; '}'; '"'; 'a'; '1'; '\r'; '\n'; ' ' ])
         (int_range 0 40))
  in
  oneof [ get; post ]

(* a stream of 1-4 pipelined requests and cut points in it *)
let stream_gen =
  let open QCheck.Gen in
  list_size (int_range 1 4) request_gen >>= fun reqs ->
  let s = String.concat "" reqs in
  list_size (int_range 0 8) (int_range 0 (String.length s)) >|= fun cuts ->
  (List.length reqs, s, List.sort_uniq compare cuts)

let split s cuts =
  let rec go from = function
    | [] -> [ String.sub s from (String.length s - from) ]
    | c :: rest -> String.sub s from (c - from) :: go c rest
  in
  go 0 cuts

let prop_framing_invariance =
  QCheck.Test.make ~count:300 ~name:"http: any split parses like the whole stream"
    (QCheck.make
       ~print:(fun (_, s, cuts) ->
         Printf.sprintf "%S cut at %s" s
           (String.concat "," (List.map string_of_int cuts)))
       stream_gen)
    (fun (n, s, cuts) ->
      let whole = drain [ s ] in
      List.length whole = n && drain (split s cuts) = whole)

let parse_total s =
  match Http.parse s with
  | Http.Complete (_, consumed) -> consumed > 0 && consumed <= String.length s
  | Http.Incomplete | Http.Invalid _ -> true

let prop_http_total =
  QCheck.Test.make ~count:1000 ~name:"http: random bytes never raise"
    QCheck.(
      oneof
        [ string;
          map (fun s -> "GET /" ^ s) (string_gen_of_size Gen.(int_range 0 60)
             Gen.(oneofl [ ' '; '\r'; '\n'; ':'; '?'; '&'; '='; '%'; 'H'; 'a'; '1' ]));
        ])
    parse_total

(* Heads and bodies a few bytes either side of the 16 KiB and 64 KiB
   bounds: within them a request parses, beyond them it is [Invalid],
   never an exception or an unbounded wait. *)
let prop_http_bounds =
  QCheck.Test.make ~count:60 ~name:"http: size bounds give Invalid, not a raise"
    QCheck.(pair (int_range 0 2) (int_range (-3) 3))
    (fun (shape, d) ->
      let max_head = 16 * 1024 and max_body = 64 * 1024 in
      match shape with
      | 0 ->
        (* a complete head of [max_head + d] bytes before the blank line *)
        let line = "GET / HTTP/1.1\r\nX: " in
        let pad = max_head + d - String.length line in
        let s = line ^ String.make pad 'a' ^ "\r\n\r\n" in
        (match Http.parse s with
        | Http.Invalid "header block too large" -> d > 0
        | Http.Complete _ -> d <= 0
        | _ -> false)
      | 1 ->
        (* no blank line yet *)
        (match Http.parse (String.make (max_head + d) 'a') with
        | Http.Invalid "header block too large" -> d > 0
        | Http.Incomplete -> d <= 0
        | _ -> false)
      | _ ->
        let len = max_body + d in
        let s =
          Printf.sprintf "POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" len
            (String.make len 'b')
        in
        (match Http.parse s with
        | Http.Invalid "body too large" -> d > 0
        | Http.Complete (r, _) -> d <= 0 && String.length r.Http.body = len
        | _ -> false))

let prop_json_total =
  QCheck.Test.make ~count:1000 ~name:"json: random bytes never raise"
    QCheck.(
      oneof
        [ string;
          string_gen_of_size Gen.(int_range 0 80)
            Gen.(oneofl
                   [ '{'; '}'; '['; ']'; '"'; ':'; ','; '-'; '+'; '.'; 'e';
                     '0'; '7'; 'n'; 'u'; 'l'; 't'; '\\'; ' '; '\255' ]);
        ])
    (fun s ->
      match Json.parse s with Ok _ | Error _ -> true)

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

(* Queries for the key properties: every kind, bound and protocol,
   and floats drawn from a small pool holding 0 and -0 and 1-ulp
   neighbours, or from the whole range. *)
let db_gen =
  QCheck.Gen.(
    oneof
      [ oneofl [ 0.; -0.; 5.; Float.succ 5.; Float.pred 5.; 7.5; -60.; 60.; 0.1 ];
        float_range (-60.) 60.;
      ])

let query_gen =
  let open QCheck.Gen in
  let protocol = oneofl (None :: List.map Option.some Bidir.Protocol.all) in
  map
    (fun ((kind, bound, protocol), (weights, (p, a), (b, c))) ->
      let protocol =
        match (kind, protocol) with
        | Query.Region, None -> Some Bidir.Protocol.Hbc
        | _ -> protocol
      in
      get_exn
        (Query.make ~kind ~power_db:p ~gains_db:(a, b, c) ~bound ?protocol
           ~weights ()))
    (pair
       (triple
          (oneofl [ Query.Sumrate; Query.Select; Query.Region ])
          (oneofl [ Bidir.Bound.Inner; Bidir.Bound.Outer ])
          protocol)
       (triple (oneofl [ 3; 33; 513 ]) (pair db_gen db_gen) (pair db_gen db_gen)))

(* Request [i] as [bidir loadgen] sends it (GET for even [i], POST for
   odd), decoded as the daemon routes it. *)
let loadgen_roundtrip i (q : Query.t) =
  match Http.parse (Serve.Loadgen.request_string ~host:"127.0.0.1" i q) with
  | Http.Complete (r, _) when r.Http.meth = "GET" ->
    Query.of_params ~kind:(Query.kind_name q.kind) r.Http.params
  | Http.Complete (r, _) -> Result.bind (Json.parse r.Http.body) Query.of_json
  | _ -> Error "request does not parse"

(* [q] with float field [i] (power_db, g_ab, g_ar, g_br) set by [f] *)
let with_float (q : Query.t) i f =
  let p = q.power_db and a, b, c = q.gains_db in
  let p, a, b, c =
    match i with
    | 0 -> (f p, a, b, c)
    | 1 -> (p, f a, b, c)
    | 2 -> (p, a, f b, c)
    | _ -> (p, a, b, f c)
  in
  get_exn
    (Query.make ~kind:q.kind ~power_db:p ~gains_db:(a, b, c) ~bound:q.bound
       ?protocol:q.protocol ~weights:q.weights ())

(* Pairs that often share a key, and pairs one bit apart: a field at 0
   against -0, or one ulp towards 0. *)
let query_pair_gen =
  let open QCheck.Gen in
  query_gen >>= fun q ->
  int_bound 3 >>= fun i ->
  oneof
    [ map (fun q2 -> (q, q2)) query_gen;
      return (q, q);
      return (q, with_float q i (fun x -> if x > 0. then Float.pred x else Float.succ x));
      return (with_float q i (fun _ -> 0.), with_float q i (fun _ -> -0.));
    ]

let prop_keys_agree =
  QCheck.Test.make ~count:500
    ~name:"query: binary key, text key and both front doors agree"
    (QCheck.make
       ~print:(fun (q1, q2) -> Query.key q1 ^ " / " ^ Query.key q2)
       query_pair_gen)
    (fun (q1, q2) ->
      let same_key r q = match r with Ok q' -> Query.key q' = Query.key q | Error _ -> false in
      Bool.equal (Query.cache_key q1 = Query.cache_key q2) (Query.key q1 = Query.key q2)
      && String.length (Query.cache_key q1) = 40
      && same_key (Query.of_json (Query.to_json q1)) q1
      && same_key (loadgen_roundtrip 0 q1) q1
      && same_key (loadgen_roundtrip 1 q1) q1)

(* Edge inputs at both front doors, with the outcome ("OK <key>" or
   the 400 text) each had before the decoder read typed values. *)
let edge_cases =
  [ (`Post {|{"kind":"sumrate","weights":33.5}|}, "ERR weights: not an integer: 33.5");
    (`Post {|{"kind":"sumrate","weights":"x"}|}, "ERR weights: not an integer: x");
    (`Post {|{"kind":"sumrate","weights":33.0}|}, "OK sumrate|inner|-|33|10|0|5|7");
    (`Post {|{"kind":"sumrate","weights":"33"}|}, "OK sumrate|inner|-|33|10|0|5|7");
    (`Post {|{"kind":"sumrate","weights":1e20}|}, "ERR weights: not an integer: 1e+20");
    (`Post {|{"kind":"sumrate","weights":-0.0}|}, "ERR weights out of range [3, 513]");
    (`Post {|{"kind":"sumrate","bound":3}|}, "ERR bound: expected inner|outer, got 3");
    (`Post {|{"kind":"sumrate","protocol":1.5}|}, "ERR unknown protocol: 1.5");
    (`Post {|{"kind":"sumrate","power_db":"abc"}|}, "ERR power_db: not a number: abc");
    (`Post {|{"kind":"sumrate","power_db":"7.5"}|}, "OK sumrate|inner|-|33|7.5|0|5|7");
    (`Post {|{"kind":"sumrate","power_db":-0.0}|}, "OK sumrate|inner|-|33|-0|0|5|7");
    (`Post {|{"kind":"sumrate","power_db":true}|}, "ERR power_db: unsupported type");
    (`Post {|{"kind":"sumrate","power_db":null}|}, "OK sumrate|inner|-|33|10|0|5|7");
    (`Post {|{"kind":"sumrate","power_db":1e999}|}, "ERR power_db out of range [-60, 60] dB");
    (`Post {|{"kind":"sumrate","power_db":5,"power_db":6}|}, "OK sumrate|inner|-|33|5|0|5|7");
    (`Post {|{"kind":"sumrate","volume":11}|}, "ERR unknown field: volume");
    (`Post {|{"kind":"sumrate","power_db":"abc","volume":11}|}, "ERR unknown field: volume");
    (`Post {|{"kind":"region"}|}, "ERR region query requires a protocol");
    (`Post {|{"kind":"region","protocol":"mabc"}|}, "OK region|inner|MABC|33|10|0|5|7");
    (`Post {|{"kind":3}|}, "ERR unknown query kind: 3");
    (`Post {|{"power_db":1}|}, "ERR missing field: kind");
    (`Post {|{"kind":null}|}, "ERR missing field: kind");
    (`Post {|[1]|}, "ERR query body must be a JSON object");
    (`Post {|{"kind":"sumrate","g_ab":[1]}|}, "ERR g_ab: unsupported type");
    ( `Post {|{"kind":"sumrate","protocol":"TDBC","bound":"outer","power_db":5.25,"g_ab":-1,"g_ar":2.5,"g_br":3}|},
      "OK sumrate|outer|TDBC|33|5.25|-1|2.5|3" );
    (`Post {|{"kind":"select","power_db":99,"weights":1}|}, "ERR power_db out of range [-60, 60] dB");
    (`Get ("sumrate", [ ("weights", "33.5") ]), "ERR weights: not an integer: 33.5");
    (`Get ("sumrate", [ ("weights", "x") ]), "ERR weights: not an integer: x");
    (`Get ("sumrate", [ ("weights", "33.0") ]), "ERR weights: not an integer: 33.0");
    (`Get ("sumrate", [ ("weights", "0x21") ]), "OK sumrate|inner|-|33|10|0|5|7");
    (`Get ("sumrate", [ ("bound", "3") ]), "ERR bound: expected inner|outer, got 3");
    (`Get ("sumrate", [ ("protocol", "1.5") ]), "ERR unknown protocol: 1.5");
    (`Get ("sumrate", [ ("power_db", "abc") ]), "ERR power_db: not a number: abc");
    (`Get ("sumrate", [ ("power_db", "-0") ]), "OK sumrate|inner|-|33|-0|0|5|7");
    (`Get ("sumrate", [ ("power_db", "") ]), "ERR power_db: not a number: ");
    (`Get ("sumrate", [ ("volume", "11") ]), "ERR unknown parameter: volume");
    (`Get ("sumrate", [ ("power_db", "abc"); ("volume", "11") ]), "ERR unknown parameter: volume");
    (`Get ("region", []), "ERR region query requires a protocol");
    (`Get ("dance", []), "ERR unknown query kind: dance");
    (`Get ("sumrate", [ ("power_db", "5"); ("power_db", "6") ]), "OK sumrate|inner|-|33|5|0|5|7");
  ]

let test_query_edge_inputs () =
  List.iter
    (fun (input, expected) ->
      let decoded, label =
        match input with
        | `Post body ->
          ( (match Json.parse body with
            | Ok j -> Query.of_json j
            | Error e -> Error ("body: " ^ e)),
            "POST " ^ body )
        | `Get (kind, params) ->
          ( Query.of_params ~kind params,
            "GET " ^ kind ^ " "
            ^ String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) params) )
      in
      let got =
        match decoded with Ok q -> "OK " ^ Query.key q | Error e -> "ERR " ^ e
      in
      Alcotest.(check string) label expected got)
    edge_cases

(* ------------------------------------------------------------------ *)
(* Service: memo-backed batching                                       *)
(* ------------------------------------------------------------------ *)

let hits () = Telemetry.Metrics.value (Telemetry.Metrics.counter "serve.cache_hits")
let misses () = Telemetry.Metrics.value (Telemetry.Metrics.counter "serve.cache_misses")
let duplicates () =
  Telemetry.Metrics.value (Telemetry.Metrics.counter "serve.cache_duplicates")

let test_service_cache_and_batches () =
  Engine.Memo.clear_all ();
  let q1 = get_exn (Query.make ~kind:Query.Sumrate ~power_db:0. ()) in
  let q2 = get_exn (Query.make ~kind:Query.Sumrate ~power_db:10. ()) in
  let h0 = hits () and m0 = misses () and d0 = duplicates () in
  (* a batch with an internal duplicate: the duplicate rides the first
     copy's evaluation, so it is neither a hit nor a miss, and both
     copies get the same body; every admitted query is one hit, one
     miss or one duplicate *)
  (match Serve.Service.respond_batch [ q1; q2; q1 ] with
  | [ b1; b2; b3 ] ->
    Alcotest.(check string) "duplicate shares the body" b1 b3;
    Alcotest.(check bool) "distinct queries differ" true (b1 <> b2)
  | l -> Alcotest.failf "expected 3 bodies, got %d" (List.length l));
  Alcotest.(check int) "no hits on a cold cache" 0 (hits () - h0);
  Alcotest.(check int) "two unique misses" 2 (misses () - m0);
  Alcotest.(check int) "one in-batch duplicate" 1 (duplicates () - d0);
  (* the same batch again: all hits, same bytes *)
  let again = Serve.Service.respond_batch [ q1; q2; q1 ] in
  Alcotest.(check int) "three hits when warm" 3 (hits () - h0);
  Alcotest.(check int) "no new misses" 2 (misses () - m0);
  Alcotest.(check int) "no new duplicates" 1 (duplicates () - d0);
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

(* A hit on a filled cache allocates the copy of the stored body and
   at most 48 words besides: the binary key, the probe's option and
   the two result lists. The text key alone took about 218 words. *)
let test_service_hit_allocation () =
  let q = get_exn (Query.make ~kind:Query.Select ~power_db:5. ()) in
  let body = Serve.Service.respond q in
  let batch = [ q ] in
  let words () =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Serve.Service.respond_batch batch));
    Gc.minor_words () -. w0
  in
  ignore (words ());
  let used = words () in
  (* a string of n bytes takes n / 8 + 1 words and a header *)
  let body_words = float_of_int ((String.length body / 8) + 2) in
  if used > body_words +. 48. then
    Alcotest.failf "a hit allocated %.0f words; the body copy is %.0f" used
      body_words

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
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_framing_invariance;
            prop_http_total;
            prop_http_bounds;
            prop_json_total;
          ] );
    ( "serve.query",
      [ Alcotest.test_case "params/json round-trip" `Quick
          test_query_params_roundtrip;
        Alcotest.test_case "defaults and validation" `Quick
          test_query_defaults_and_validation;
        Alcotest.test_case "eval byte-stable" `Quick
          test_query_eval_deterministic;
        Alcotest.test_case "edge inputs keep their outcome" `Quick
          test_query_edge_inputs;
        QCheck_alcotest.to_alcotest prop_keys_agree;
      ] );
    ( "serve.service",
      [ Alcotest.test_case "cache hits, duplicates, batches" `Quick
          test_service_cache_and_batches;
        Alcotest.test_case "batched equals sequential" `Quick
          test_service_batch_matches_sequential;
        Alcotest.test_case "clear_all empties the cache" `Quick
          test_service_cache_cleared;
        Alcotest.test_case "hit allocation budget" `Quick
          test_service_hit_allocation;
        Alcotest.test_case "envelope shape" `Quick test_service_envelope_shape;
        Alcotest.test_case "scenario pick deterministic" `Quick
          test_scenarios_pick_deterministic;
      ] );
    ( "serve.daemon",
      [ Alcotest.test_case "end-to-end over a socket" `Quick
          test_server_end_to_end;
      ] );
  ]
