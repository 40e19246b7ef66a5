type strategy = Greedy | Lp

let strategy_name = function Greedy -> "greedy" | Lp -> "lp"

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "greedy" -> Some Greedy
  | "lp" -> Some Lp
  | _ -> None

type table = {
  scenario : Scenario.t;
  choices : Bidir.Relay_selection.choice array array;
}

let rate_table ?(protocols = Bidir.Protocol.coded) (sc : Scenario.t) =
  if protocols = [] then invalid_arg "Network.Assign.rate_table: no protocols";
  Telemetry.Span.with_span ~cat:"network"
    ~args:
      [ ("pairs", Telemetry.Json.Int (Scenario.num_pairs sc));
        ("relays", Telemetry.Json.Int (Scenario.num_relays sc));
      ]
    "network.rate_table"
  @@ fun () ->
  let eval (p : Scenario.pair) =
    Array.map
      (fun cand ->
        Bidir.Relay_selection.best ~protocols ~power:p.Scenario.power [ cand ])
      p.Scenario.candidates
  in
  let choices =
    Array.of_list (Engine.Pool.map eval (Array.to_list sc.Scenario.pairs))
  in
  { scenario = sc; choices }

type link = {
  pair_id : string;
  relay_id : string;
  protocol : Bidir.Protocol.t;
  standalone : float;
  share : float;
  rate : float;
}

type solution = {
  strategy : strategy;
  links : link list;
  per_pair : (string * float) list;
  sum_rate : float;
  assignment_pivots : int;
}

let standalone_of (c : Bidir.Relay_selection.choice) =
  c.Bidir.Relay_selection.sum_rate

(* same strict-improvement rule as [Relay_selection.best]: ties keep
   the earlier relay *)
let greedy_pick row =
  let best = ref 0 in
  Array.iteri
    (fun i c ->
      if standalone_of c > standalone_of row.(!best) +. 1e-12 then best := i)
    row;
  !best

let greedy (t : table) =
  let sc = t.scenario in
  let chosen = Array.map greedy_pick t.choices in
  let load = Array.make (Scenario.num_relays sc) 0 in
  Array.iter (fun r -> load.(r) <- load.(r) + 1) chosen;
  let links =
    Array.to_list
      (Array.mapi
         (fun k r ->
           let choice = t.choices.(k).(r) in
           let share = 1. /. float_of_int load.(r) in
           let standalone = standalone_of choice in
           { pair_id = sc.Scenario.pairs.(k).Scenario.pair_id;
             relay_id = sc.Scenario.relay_ids.(r);
             protocol = choice.Bidir.Relay_selection.protocol;
             standalone;
             share;
             rate = share *. standalone;
           })
         chosen)
  in
  let per_pair = List.map (fun l -> (l.pair_id, l.rate)) links in
  let sum_rate = List.fold_left (fun acc (_, r) -> acc +. r) 0. per_pair in
  { strategy = Greedy; links; per_pair; sum_rate; assignment_pivots = 0 }

let lp (t : table) =
  let sc = t.scenario in
  let np = Scenario.num_pairs sc in
  let nr = Scenario.num_relays sc in
  let nvars = np * nr in
  let idx k r = (k * nr) + r in
  let row f =
    let coeffs = Array.make nvars 0. in
    f coeffs;
    Linprog.Simplex.constr coeffs Linprog.Simplex.Le 1.
  in
  let pair_rows =
    List.init np (fun k ->
        row (fun a ->
            for r = 0 to nr - 1 do
              a.(idx k r) <- 1.
            done))
  in
  let relay_rows =
    List.init nr (fun r ->
        row (fun a ->
            for k = 0 to np - 1 do
              a.(idx k r) <- 1.
            done))
  in
  let c = Array.make nvars 0. in
  for k = 0 to np - 1 do
    for r = 0 to nr - 1 do
      c.(idx k r) <- standalone_of t.choices.(k).(r)
    done
  done;
  let solver = Linprog.Solver.create ~nvars ~constrs:(pair_rows @ relay_rows) in
  let x =
    match Linprog.Solver.reoptimize solver ~c with
    | Linprog.Simplex.Optimal s -> s.Linprog.Simplex.x
    | Linprog.Simplex.Unbounded | Linprog.Simplex.Infeasible ->
      (* cannot happen: 0 is feasible and every variable is <= 1 *)
      assert false
  in
  (* counted on the instance: the process-wide [linprog.pivots] delta
     would also count solves running on other domains meanwhile *)
  let assignment_pivots = Linprog.Solver.pivots solver in
  Telemetry.Metrics.add
    (Telemetry.Metrics.counter "network.assignment_pivots")
    assignment_pivots;
  let links = ref [] in
  let per_pair = ref [] in
  for k = np - 1 downto 0 do
    let rate = ref 0. in
    for r = nr - 1 downto 0 do
      let share = x.(idx k r) in
      if share > 1e-9 then begin
        let choice = t.choices.(k).(r) in
        let standalone = standalone_of choice in
        links :=
          { pair_id = sc.Scenario.pairs.(k).Scenario.pair_id;
            relay_id = sc.Scenario.relay_ids.(r);
            protocol = choice.Bidir.Relay_selection.protocol;
            standalone;
            share;
            rate = share *. standalone;
          }
          :: !links
      end
    done;
    (* accumulate left-to-right so the float sum has a fixed order *)
    for r = 0 to nr - 1 do
      let share = x.(idx k r) in
      if share > 1e-9 then rate := !rate +. (share *. c.(idx k r))
    done;
    per_pair := (sc.Scenario.pairs.(k).Scenario.pair_id, !rate) :: !per_pair
  done;
  let sum_rate = List.fold_left (fun acc (_, r) -> acc +. r) 0. !per_pair in
  { strategy = Lp;
    links = !links;
    per_pair = !per_pair;
    sum_rate;
    assignment_pivots;
  }

let solve_table strategy (t : table) =
  let sc = t.scenario in
  Telemetry.Span.with_span ~cat:"network"
    ~args:
      [ ("strategy", Telemetry.Json.String (strategy_name strategy));
        ("pairs", Telemetry.Json.Int (Scenario.num_pairs sc));
        ("relays", Telemetry.Json.Int (Scenario.num_relays sc));
      ]
    "network.assign"
  @@ fun () ->
  let solution =
    Telemetry.Metrics.time
      (Telemetry.Metrics.histogram "network.assign_seconds")
      (fun () -> match strategy with Greedy -> greedy t | Lp -> lp t)
  in
  let pair_rates = Telemetry.Metrics.histogram "network.pair_sum_rate" in
  List.iter
    (fun (_, rate) -> Telemetry.Metrics.observe pair_rates rate)
    solution.per_pair;
  solution

let solve ?protocols strategy sc = solve_table strategy (rate_table ?protocols sc)

let to_json s =
  let open Telemetry.Json in
  Obj
    [ ("strategy", String (strategy_name s.strategy));
      ("sum_rate", Float s.sum_rate);
      ("assignment_pivots", Int s.assignment_pivots);
      ("per_pair", Obj (List.map (fun (id, r) -> (id, Float r)) s.per_pair));
      ("links",
       List
         (List.map
            (fun l ->
              Obj
                [ ("pair", String l.pair_id);
                  ("relay", String l.relay_id);
                  ("protocol", String (Bidir.Protocol.name l.protocol));
                  ("standalone", Float l.standalone);
                  ("share", Float l.share);
                  ("rate", Float l.rate);
                ])
            s.links));
    ]
