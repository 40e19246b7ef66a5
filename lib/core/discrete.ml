type network = {
  ch_ab : Infotheory.Dmc.t;
  ch_ar : Infotheory.Dmc.t;
  ch_br : Infotheory.Dmc.t;
  mac_r : Infotheory.Mac.t;
}

let make ~ch_ab ~ch_ar ~ch_br ~mac_r =
  let na = Infotheory.Dmc.num_inputs ch_ab in
  if Infotheory.Dmc.num_inputs ch_ar <> na then
    invalid_arg "Discrete.make: a's alphabets differ between links";
  let nb = Infotheory.Dmc.num_inputs ch_br in
  if Infotheory.Mac.num_inputs1 mac_r <> na || Infotheory.Mac.num_inputs2 mac_r <> nb
  then invalid_arg "Discrete.make: MAC alphabets do not match the links";
  { ch_ab; ch_ar; ch_br; mac_r }

let bsc_network ~p_ab ~p_ar ~p_br ~p_mac =
  let noisy_xor =
    Infotheory.Mac.create
      (Array.init 2 (fun x1 ->
           Array.init 2 (fun x2 ->
               let clean = x1 lxor x2 in
               Array.init 2 (fun y ->
                   if y = clean then 1. -. p_mac else p_mac))))
  in
  make
    ~ch_ab:(Infotheory.Channels.bsc p_ab)
    ~ch_ar:(Infotheory.Channels.bsc p_ar)
    ~ch_br:(Infotheory.Channels.bsc p_br)
    ~mac_r:noisy_xor

type inputs = {
  p_a : Infotheory.Pmf.t;
  p_b : Infotheory.Pmf.t;
  p_r : Infotheory.Pmf.t;
}

let uniform_inputs net =
  { p_a = Infotheory.Pmf.uniform (Infotheory.Dmc.num_inputs net.ch_ar);
    p_b = Infotheory.Pmf.uniform (Infotheory.Dmc.num_inputs net.ch_br);
    p_r = Infotheory.Pmf.uniform (Infotheory.Dmc.num_inputs net.ch_ar);
  }

(* One transmitter heard over two independent-noise links: the joint
   channel X -> (Y1, Y2) with W(y1,y2|x) = W1(y1|x) W2(y2|x). *)
let joint_observation ch1 ch2 =
  let n = Infotheory.Dmc.num_inputs ch1 in
  if Infotheory.Dmc.num_inputs ch2 <> n then
    invalid_arg "Discrete: joint observation input mismatch";
  let ny1 = Infotheory.Dmc.num_outputs ch1 in
  let ny2 = Infotheory.Dmc.num_outputs ch2 in
  Infotheory.Dmc.create
    (Array.init n (fun x ->
         Array.init (ny1 * ny2) (fun k ->
             Infotheory.Dmc.transition ch1 x (k / ny2)
             *. Infotheory.Dmc.transition ch2 x (k mod ny2))))

let mi_values net ins =
  let mi = Infotheory.Dmc.mutual_information in
  let mac = Infotheory.Mac.rate_terms net.mac_r ins.p_a ins.p_b in
  (* reciprocity: the relay broadcast reaches a through ch_ar and b
     through ch_br, driven by the relay's input distribution *)
  { Templates.ab = mi net.ch_ab ins.p_a;
    ba = mi net.ch_ab ins.p_b;
    ar = mi net.ch_ar ins.p_a;
    br = mi net.ch_br ins.p_b;
    ra = mi net.ch_ar ins.p_r;
    rb = mi net.ch_br ins.p_r;
    mac_a = mac.Infotheory.Mac.i1_given_2;
    mac_b = mac.Infotheory.Mac.i2_given_1;
    mac_sum = mac.Infotheory.Mac.i_joint;
    a_rb = mi (joint_observation net.ch_ar net.ch_ab) ins.p_a;
    b_ra = mi (joint_observation net.ch_br net.ch_ab) ins.p_b;
  }

let bounds protocol kind net ins =
  Templates.bounds protocol kind (mi_values net ins)

let max_sum_rate_binary ?(grid = 11) protocol kind net =
  let binary ch = Infotheory.Dmc.num_inputs ch = 2 in
  if not (binary net.ch_ab && binary net.ch_ar && binary net.ch_br) then
    invalid_arg "Discrete.max_sum_rate_binary: network is not binary";
  let sum_rate (qa, qb, qr) =
    let ins =
      { p_a = Infotheory.Pmf.binary qa;
        p_b = Infotheory.Pmf.binary qb;
        p_r = Infotheory.Pmf.binary qr;
      }
    in
    let b = bounds protocol kind net ins in
    (Rate_region.sum (Rate_region.max_sum_rate b), ins)
  in
  let candidates lo hi =
    Array.to_list (Numerics.Float_utils.linspace lo hi grid)
  in
  let search qs =
    (* exhaustive over the (small) grid cube *)
    List.fold_left
      (fun (best_v, best_ins, best_q) qa ->
        List.fold_left
          (fun (best_v, best_ins, best_q) qb ->
            List.fold_left
              (fun (best_v, best_ins, best_q) qr ->
                let v, ins = sum_rate (qa, qb, qr) in
                if v > best_v then (v, ins, (qa, qb, qr))
                else (best_v, best_ins, best_q))
              (best_v, best_ins, best_q) qs)
          (best_v, best_ins, best_q) qs)
      (neg_infinity, uniform_inputs net, (0.5, 0.5, 0.5))
      qs
  in
  let _, _, (qa, qb, qr) = search (candidates 0.02 0.98) in
  (* one refinement pass around the best cell *)
  let refine q = candidates (Float.max 0.01 (q -. 0.1)) (Float.min 0.99 (q +. 0.1)) in
  let refined =
    List.fold_left
      (fun (best_v, best_ins) qa' ->
        List.fold_left
          (fun (best_v, best_ins) qb' ->
            List.fold_left
              (fun (best_v, best_ins) qr' ->
                let v, ins = sum_rate (qa', qb', qr') in
                if v > best_v then (v, ins) else (best_v, best_ins))
              (best_v, best_ins) (refine qr))
          (best_v, best_ins) (refine qb))
      (neg_infinity, uniform_inputs net)
      (refine qa)
  in
  refined

let time_shared_region protocol kind net inputs_list =
  if inputs_list = [] then
    invalid_arg "Discrete.time_shared_region: no input distributions";
  Rate_region.union_polygon
    (List.map (fun ins -> bounds protocol kind net ins) inputs_list)

let bec_network ~e_ab ~e_ar ~e_br ~e_mac =
  List.iter
    (fun e ->
      if e < 0. || e > 1. then invalid_arg "Discrete.bec_network: bad erasure")
    [ e_ab; e_ar; e_br; e_mac ];
  let erasure_xor =
    (* output 0/1 = the XOR, output 2 = erasure *)
    Infotheory.Mac.create
      (Array.init 2 (fun x1 ->
           Array.init 2 (fun x2 ->
               let clean = x1 lxor x2 in
               Array.init 3 (fun y ->
                   if y = 2 then e_mac
                   else if y = clean then 1. -. e_mac
                   else 0.))))
  in
  make
    ~ch_ab:(Infotheory.Channels.bec e_ab)
    ~ch_ar:(Infotheory.Channels.bec e_ar)
    ~ch_br:(Infotheory.Channels.bec e_br)
    ~mac_r:erasure_xor

let quaternary_network ~p =
  if p < 0. || p > 1. then invalid_arg "Discrete.quaternary_network: bad p";
  let uniform_error =
    Infotheory.Dmc.create
      (Array.init 4 (fun x ->
           Array.init 4 (fun y -> if y = x then 1. -. p else p /. 3.)))
  in
  let mod4_mac =
    Infotheory.Mac.create
      (Array.init 4 (fun x1 ->
           Array.init 4 (fun x2 ->
               let clean = (x1 + x2) mod 4 in
               Array.init 4 (fun y ->
                   if y = clean then 1. -. p else p /. 3.))))
  in
  make ~ch_ab:uniform_error ~ch_ar:uniform_error ~ch_br:uniform_error
    ~mac_r:mod4_mac
