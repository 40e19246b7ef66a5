(** Deterministic synthetic traffic against a running daemon: N client
    domains replay a seeded query stream (kind mix from
    {!Scenarios}, alternating GET and POST framing) over keep-alive
    connections, measure per-request wall latency into one shared
    lock-free histogram, and optionally dump every (query key,
    response body) pair in client-major order — a byte-stable artifact
    CI diffs across server domain counts.

    Reported queries/sec and percentiles land in [BENCH_serve.json]
    (schema [bidir-bench-serve/1]) via the CLI wrapper. *)

type config = {
  host : string;
  port : int;
  clients : int;  (** concurrent client domains *)
  requests : int;  (** total requests across all clients *)
  rate : float;
      (** aggregate target arrival rate in req/s; 0 = closed loop *)
  mix : Scenarios.mix;
  seed : int;
  connect_timeout : float;
      (** seconds to retry the initial connect (daemon startup race) *)
  dump : string option;
      (** write one JSONL line per request: client, index, query key,
          raw response body *)
  shutdown : bool;  (** POST /shutdown when done *)
}

val default_config : config
(** 127.0.0.1:8090, 4 clients, 200 requests, closed loop,
    {!Scenarios.default_mix}, seed 1, 10 s connect window. *)

type result = {
  sent : int;
  ok : int;  (** HTTP 200 with a parseable body *)
  failed : int;
  wall_seconds : float;
  qps : float;  (** ok / wall *)
  p50 : float;  (** client-observed request latency, seconds *)
  p90 : float;
  p99 : float;
  server_counters : (string * int) list;
      (** the daemon's [serve.*] counters fetched from [/metrics]
          after the run; empty if the fetch failed *)
}

val request_string : host:string -> int -> Query.t -> string
(** The bytes of request [i] for a query: even [i] as [GET /v1/<kind>]
    with URL parameters, odd [i] as [POST /v1/query] with the JSON echo
    of the query as its body. *)

val run : config -> result

val result_to_json : config -> result -> Telemetry.Json.t
(** The [bidir-bench-serve/1] document. *)
