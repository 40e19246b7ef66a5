type scenario = { power : float; gains : Channel.Gains.t }

let scenario ~power_db ~gains =
  { power = Numerics.Float_utils.db_to_lin power_db; gains }

let scenario_lin ~power ~gains =
  if not (power >= 0.) then
    invalid_arg "Gaussian.scenario_lin: power must be non-negative";
  { power; gains }

type link_rates = {
  c_ab : float;
  c_ar : float;
  c_br : float;
  c_mac : float;
  c_a_rb : float;
  c_b_ra : float;
}

(* The six SNR products are batched through one in-place
   [Float_utils.capacities_into] pass over a per-domain scratch buffer
   (bit-identical to six [Channel.Awgn.c] calls; see its contract).
   DLS keeps the scratch un-shared between pool workers. *)
let link_scratch = Domain.DLS.new_key (fun () -> Float.Array.create 6)

let link_rates s =
  let p = s.power in
  let g = s.gains in
  let buf = Domain.DLS.get link_scratch in
  Float.Array.unsafe_set buf 0 (p *. g.Channel.Gains.g_ab);
  Float.Array.unsafe_set buf 1 (p *. g.Channel.Gains.g_ar);
  Float.Array.unsafe_set buf 2 (p *. g.Channel.Gains.g_br);
  Float.Array.unsafe_set buf 3 (p *. (g.Channel.Gains.g_ar +. g.Channel.Gains.g_br));
  Float.Array.unsafe_set buf 4 (p *. (g.Channel.Gains.g_ar +. g.Channel.Gains.g_ab));
  Float.Array.unsafe_set buf 5 (p *. (g.Channel.Gains.g_br +. g.Channel.Gains.g_ab));
  Numerics.Float_utils.capacities_into ~src:buf ~dst:buf ~n:6;
  { c_ab = Float.Array.unsafe_get buf 0;
    c_ar = Float.Array.unsafe_get buf 1;
    c_br = Float.Array.unsafe_get buf 2;
    c_mac = Float.Array.unsafe_get buf 3;
    c_a_rb = Float.Array.unsafe_get buf 4;
    c_b_ra = Float.Array.unsafe_get buf 5;
  }

(* With Gaussian inputs and reciprocal gains the relay broadcast is heard
   at rate C(P G_ar) by a and C(P G_br) by b, and the MAC conditional
   terms equal the single-user ones. *)
let mi s =
  let r = link_rates s in
  let m =
    { Templates.ab = r.c_ab;
      ba = r.c_ab;
      ar = r.c_ar;
      br = r.c_br;
      ra = r.c_ar;
      rb = r.c_br;
      mac_a = r.c_ar;
      mac_b = r.c_br;
      mac_sum = r.c_mac;
      a_rb = r.c_a_rb;
      b_ra = r.c_b_ra;
    }
  in
  Templates.validate m;
  m

let bounds protocol kind s = Templates.bounds protocol kind (mi s)

let is_sum_term (t : Bound.term) = t.Bound.ca > 0. && t.Bound.cb > 0.

let relay_free_outer protocol s =
  let b = bounds protocol Bound.Outer s in
  { b with Bound.terms = List.filter (fun t -> not (is_sum_term t)) b.Bound.terms }
