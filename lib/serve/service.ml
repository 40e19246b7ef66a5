module Json = Telemetry.Json

let requests_c = Telemetry.Metrics.counter "serve.requests"
let cache_hits_c = Telemetry.Metrics.counter "serve.cache_hits"
let cache_misses_c = Telemetry.Metrics.counter "serve.cache_misses"

let batch_size_h =
  Telemetry.Metrics.histogram ~lo:1. ~growth:1.02 ~buckets:256
    "serve.batch_size"

(* Response cache: canonical query key -> rendered body. Unnamed, so
   its lookups are counted once, by the serve.* counters above; a
   memo table like every other, so [Engine.Memo.clear_all] empties
   it. *)
let cache = Engine.Memo.create ()

let cache_length () = Engine.Memo.length cache

let envelope q result =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.String "bidir-serve/1");
         ("query", Query.to_json q);
         result;
       ])

let eval_body q =
  match Query.eval q with
  | result -> envelope q ("result", result)
  | exception e ->
    envelope q ("error", Json.String (Printexc.to_string e))

let respond_batch qs =
  let n = List.length qs in
  if n = 0 then []
  else begin
    Telemetry.Metrics.add requests_c n;
    Telemetry.Metrics.observe_int batch_size_h n;
    (* admission: one cache probe per query *)
    let probed =
      List.map
        (fun q ->
          let k = Query.key q in
          (k, q, Engine.Memo.find_opt cache k))
        qs
    in
    let hits =
      List.length (List.filter (fun (_, _, r) -> r <> None) probed)
    in
    Telemetry.Metrics.add cache_hits_c hits;
    (* unique misses in first-seen order; duplicates within the batch
       ride the first occurrence's evaluation *)
    let seen = Hashtbl.create 16 in
    let misses =
      List.filter_map
        (fun (k, q, r) ->
          match r with
          | Some _ -> None
          | None ->
            if Hashtbl.mem seen k then None
            else begin
              Hashtbl.add seen k ();
              Some (k, q)
            end)
        probed
    in
    Telemetry.Metrics.add cache_misses_c (List.length misses);
    let miss_arr = Array.of_list misses in
    let bodies = Engine.Pool.map_array (fun (_, q) -> eval_body q) miss_arr in
    (* [fresh] also serves duplicates when the memo switch is off and
       [put] is a no-op *)
    let fresh = Hashtbl.create 16 in
    Array.iteri
      (fun i (k, _) ->
        Engine.Memo.put cache k bodies.(i);
        Hashtbl.replace fresh k bodies.(i))
      miss_arr;
    List.map
      (fun (k, q, r) ->
        match r with
        | Some body -> body
        | None -> (
          match Hashtbl.find_opt fresh k with
          | Some body -> body
          | None ->
            (* unreachable: every miss key was evaluated above *)
            eval_body q))
      probed
  end

let respond q = List.hd (respond_batch [ q ])
