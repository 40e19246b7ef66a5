type constraint_kind = Peak | Average_energy

type result = {
  sum_rate : float;
  ra : float;
  rb : float;
  deltas : float array;
  node_powers : float * float * float;
}

(* which nodes transmit in each phase of each protocol *)
type node = A | B | R

let transmitters protocol phase =
  match (protocol, phase) with
  | Protocol.Dt, 0 -> [ A ]
  | Protocol.Dt, 1 -> [ B ]
  | Protocol.Naive, 0 -> [ A ]
  | Protocol.Naive, 1 -> [ R ]
  | Protocol.Naive, 2 -> [ B ]
  | Protocol.Naive, 3 -> [ R ]
  | Protocol.Mabc, 0 -> [ A; B ]
  | Protocol.Mabc, 1 -> [ R ]
  | Protocol.Tdbc, 0 -> [ A ]
  | Protocol.Tdbc, 1 -> [ B ]
  | Protocol.Tdbc, 2 -> [ R ]
  | Protocol.Hbc, 0 -> [ A ]
  | Protocol.Hbc, 1 -> [ B ]
  | Protocol.Hbc, 2 -> [ A; B ]
  | Protocol.Hbc, 3 -> [ R ]
  | (Protocol.Dt | Protocol.Naive | Protocol.Mabc | Protocol.Tdbc | Protocol.Hbc), _
    -> invalid_arg "Power_allocation.transmitters: phase out of range"

let active_fraction protocol deltas node =
  let acc = ref 0. in
  Array.iteri
    (fun l d -> if List.mem node (transmitters protocol l) then acc := !acc +. d)
    deltas;
  !acc

(* power of [node] during its active phases *)
let node_power kind protocol (s : Gaussian.scenario) deltas node =
  match kind with
  | Peak -> s.Gaussian.power
  | Average_energy ->
    let f = active_fraction protocol deltas node in
    if f <= 1e-12 then 0. (* never transmits: power is irrelevant *)
    else s.Gaussian.power /. f

(* The inner bound for fixed durations and per-node powers (Templates
   with per-phase powers). Every row is Ra <= a, Rb <= b or
   Ra + Rb <= s, so the bound is the three budgets, each the least of
   its rows; [infinity] where a protocol has no sum row. *)
let budgets protocol (s : Gaussian.scenario) kind deltas =
  let g = s.Gaussian.gains in
  let gab = g.Channel.Gains.g_ab
  and gar = g.Channel.Gains.g_ar
  and gbr = g.Channel.Gains.g_br in
  let pa = node_power kind protocol s deltas A in
  let pb = node_power kind protocol s deltas B in
  let pr = node_power kind protocol s deltas R in
  let c = Channel.Awgn.c in
  let d l = deltas.(l) in
  match protocol with
  | Protocol.Dt -> (d 0 *. c (pa *. gab), d 1 *. c (pb *. gab), infinity)
  | Protocol.Naive ->
    ( Float.min (d 0 *. c (pa *. gar)) (d 1 *. c (pr *. gbr)),
      Float.min (d 2 *. c (pb *. gbr)) (d 3 *. c (pr *. gar)),
      infinity )
  | Protocol.Mabc ->
    ( Float.min (d 0 *. c (pa *. gar)) (d 1 *. c (pr *. gbr)),
      Float.min (d 0 *. c (pb *. gbr)) (d 1 *. c (pr *. gar)),
      d 0 *. c ((pa *. gar) +. (pb *. gbr)) )
  | Protocol.Tdbc ->
    ( Float.min (d 0 *. c (pa *. gar))
        ((d 0 *. c (pa *. gab)) +. (d 2 *. c (pr *. gbr))),
      Float.min (d 1 *. c (pb *. gbr))
        ((d 1 *. c (pb *. gab)) +. (d 2 *. c (pr *. gar))),
      infinity )
  | Protocol.Hbc ->
    ( Float.min ((d 0 +. d 2) *. c (pa *. gar))
        ((d 0 *. c (pa *. gab)) +. (d 3 *. c (pr *. gbr))),
      Float.min ((d 1 +. d 2) *. c (pb *. gbr))
        ((d 1 *. c (pb *. gab)) +. (d 3 *. c (pr *. gar))),
      (d 0 *. c (pa *. gar))
      +. (d 1 *. c (pb *. gbr))
      +. (d 2 *. c ((pa *. gar) +. (pb *. gbr))) )

(* the ra-most maximiser of Ra + Rb under the budgets: the sum is
   min (a + b) s *)
let evaluate protocol s kind deltas =
  let a, b, sum = budgets protocol s kind deltas in
  let ra = Float.min a sum in
  let rb = Float.min b (sum -. ra) in
  (ra +. rb, ra, rb)

(* enumerate compositions of [k] into [parts] non-negative integers *)
let iter_compositions ~parts ~k f =
  let counts = Array.make parts 0 in
  let rec go idx remaining =
    if idx = parts - 1 then begin
      counts.(idx) <- remaining;
      f counts
    end
    else
      for v = 0 to remaining do
        counts.(idx) <- v;
        go (idx + 1) (remaining - v)
      done
  in
  go 0 k

let sum_rate ?(resolution = 20) ?(refinements = 4) protocol s kind =
  if resolution < 2 then invalid_arg "Power_allocation.sum_rate: resolution < 2";
  let parts = Protocol.num_phases protocol in
  (* search over the simplex: from the peak-power LP optimum, then
     globally at [resolution], then refined grids centred on the
     incumbent with shrinking radius *)
  let best = ref (neg_infinity, 0., 0., Array.make parts (1. /. float_of_int parts)) in
  let consider deltas =
    let sum, ra, rb = evaluate protocol s kind deltas in
    let best_sum, _, _, _ = !best in
    if sum > best_sum then best := (sum, ra, rb, Array.copy deltas)
  in
  (* the exact optimum under the peak constraint, so [Peak] is never
     below [Optimize.sum_rate]; at the same durations every node's
     average-energy power is P / f >= P, so [Average_energy] is never
     below [Peak] either *)
  consider (Optimize.sum_rate protocol Bound.Inner s).Optimize.deltas;
  iter_compositions ~parts ~k:resolution (fun counts ->
      consider
        (Array.map (fun c -> float_of_int c /. float_of_int resolution) counts));
  for round = 1 to refinements do
    let _, _, _, centre = !best in
    (* shrink the whole grid toward the incumbent: candidates
       (1 - rho) centre + rho grid stay exactly on the simplex *)
    let rho = 0.4 ** float_of_int round in
    iter_compositions ~parts ~k:resolution (fun counts ->
        let cand =
          Array.mapi
            (fun i c ->
              ((1. -. rho) *. centre.(i))
              +. (rho *. float_of_int c /. float_of_int resolution))
            counts
        in
        consider cand)
  done;
  let sum, ra, rb, deltas = !best in
  { sum_rate = sum;
    ra;
    rb;
    deltas;
    node_powers =
      ( node_power kind protocol s deltas A,
        node_power kind protocol s deltas B,
        node_power kind protocol s deltas R );
  }

let boost_table ?(powers_db = [ 0.; 10. ]) ?(gains = Channel.Gains.paper_fig4)
    () =
  let rows =
    List.concat_map
      (fun power_db ->
        let s = Gaussian.scenario ~power_db ~gains in
        List.map
          (fun protocol ->
            let peak = sum_rate protocol s Peak in
            let avg = sum_rate protocol s Average_energy in
            [ Printf.sprintf "%g" power_db;
              Protocol.name protocol;
              Printf.sprintf "%.4f" peak.sum_rate;
              Printf.sprintf "%.4f" avg.sum_rate;
              Printf.sprintf "+%.1f%%"
                (100. *. ((avg.sum_rate /. Float.max peak.sum_rate 1e-12) -. 1.));
            ])
          Protocol.relayed)
      powers_db
  in
  { Figures.table_id = "power-boost";
    table_title =
      "Peak (paper) vs average-energy power constraint: energy banking gain";
    headers = [ "P (dB)"; "protocol"; "peak"; "avg-energy"; "gain" ];
    rows;
  }
