module Json = Telemetry.Json

let requests_c = Telemetry.Metrics.counter "serve.requests"
let cache_hits_c = Telemetry.Metrics.counter "serve.cache_hits"
let cache_misses_c = Telemetry.Metrics.counter "serve.cache_misses"
let cache_duplicates_c = Telemetry.Metrics.counter "serve.cache_duplicates"

let batch_size_h =
  Telemetry.Metrics.histogram ~lo:1. ~growth:1.02 ~buckets:256
    "serve.batch_size"

(* Response cache: [Query.cache_key] -> rendered body. Unnamed, so
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

let probe q = Engine.Memo.find_opt cache (Query.cache_key q)

(* The batch with at least one miss: its unique misses in first-seen
   order (duplicates within the batch ride the first occurrence's
   evaluation) go out in one pool fan-out and are stored back. *)
let answer_misses qs probed =
  (* cache key -> index of its evaluation in [miss_arr] *)
  let seen = Hashtbl.create 16 in
  let hits = ref 0 and duplicates = ref 0 in
  let misses =
    List.fold_left2
      (fun acc q r ->
        match r with
        | Some _ -> incr hits; acc
        | None ->
          let k = Query.cache_key q in
          if Hashtbl.mem seen k then (incr duplicates; acc)
          else begin
            Hashtbl.add seen k (Hashtbl.length seen);
            (k, q) :: acc
          end)
      [] qs probed
  in
  let miss_arr = Array.of_list (List.rev misses) in
  Telemetry.Metrics.add cache_hits_c !hits;
  Telemetry.Metrics.add cache_misses_c (Array.length miss_arr);
  Telemetry.Metrics.add cache_duplicates_c !duplicates;
  let bodies = Engine.Pool.map_array (fun (_, q) -> eval_body q) miss_arr in
  Array.iteri (fun i (k, _) -> Engine.Memo.put cache k bodies.(i)) miss_arr;
  List.map2
    (fun q r ->
      match r with
      | Some body -> body
      | None -> bodies.(Hashtbl.find seen (Query.cache_key q)))
    qs probed

let respond_batch qs =
  match qs with
  | [] -> []
  | _ ->
    let n = List.length qs in
    Telemetry.Metrics.add requests_c n;
    Telemetry.Metrics.observe_int batch_size_h n;
    (* admission: one cache probe per query *)
    let probed = List.map probe qs in
    if List.for_all Option.is_some probed then begin
      Telemetry.Metrics.add cache_hits_c n;
      List.map Option.get probed
    end
    else answer_misses qs probed

let respond q = List.hd (respond_batch [ q ])
