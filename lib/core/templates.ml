type mi = {
  ab : float;
  ba : float;
  ar : float;
  br : float;
  ra : float;
  rb : float;
  mac_a : float;
  mac_b : float;
  mac_sum : float;
  a_rb : float;
  b_ra : float;
}

(* Field by field, so validating a bound's inputs allocates nothing;
   [v >= 0. && v < infinity] rejects negatives, infinities and NaN. *)
let[@inline] check_mi v =
  if not (v >= 0. && v < infinity) then
    invalid_arg "Templates.validate: mutual informations must be finite and non-negative"

let validate m =
  check_mi m.ab;
  check_mi m.ba;
  check_mi m.ar;
  check_mi m.br;
  check_mi m.ra;
  check_mi m.rb;
  check_mi m.mac_a;
  check_mi m.mac_b;
  check_mi m.mac_sum;
  check_mi m.a_rb;
  check_mi m.b_ra

let num_fields = 11

let of_fields f =
  { ab = f 0;
    ba = f 1;
    ar = f 2;
    br = f 3;
    ra = f 4;
    rb = f 5;
    mac_a = f 6;
    mac_b = f 7;
    mac_sum = f 8;
    a_rb = f 9;
    b_ra = f 10;
  }

(* Field by field into an unboxed buffer: reading a float field of this
   all-float record and storing it allocates nothing. *)
let fields_into m dst =
  Float.Array.set dst 0 m.ab;
  Float.Array.set dst 1 m.ba;
  Float.Array.set dst 2 m.ar;
  Float.Array.set dst 3 m.br;
  Float.Array.set dst 4 m.ra;
  Float.Array.set dst 5 m.rb;
  Float.Array.set dst 6 m.mac_a;
  Float.Array.set dst 7 m.mac_b;
  Float.Array.set dst 8 m.mac_sum;
  Float.Array.set dst 9 m.a_rb;
  Float.Array.set dst 10 m.b_ra

let t_ra = Bound.term ~ca:1. ~cb:0.
let t_rb = Bound.term ~ca:0. ~cb:1.
let t_sum = Bound.term ~ca:1. ~cb:1.

let dt m =
  validate m;
  Bound.make ~protocol:Protocol.Dt ~bound_kind:Bound.Inner ~num_phases:2
    ~terms:
      [ t_ra ~label:"a->b direct" [| m.ab; 0. |];
        t_rb ~label:"b->a direct" [| 0.; m.ba |];
      ]

(* The traditional four-phase routing baseline (paper Fig. 1(ii)):
   a->r, r->b, b->r, r->a, every hop a plain point-to-point link. Its
   region is exact — each constraint is a single-hop capacity. *)
let naive m =
  validate m;
  Bound.make ~protocol:Protocol.Naive ~bound_kind:Bound.Inner ~num_phases:4
    ~terms:
      [ t_ra ~label:"hop a->r" [| m.ar; 0.; 0.; 0. |];
        t_ra ~label:"hop r->b" [| 0.; m.rb; 0.; 0. |];
        t_rb ~label:"hop b->r" [| 0.; 0.; m.br; 0. |];
        t_rb ~label:"hop r->a" [| 0.; 0.; 0.; m.ra |];
      ]

(* Theorem 2 — the MABC capacity region. Phase 1 is the MAC at the
   relay, phase 2 the relay broadcast. Cut-sets: S1={a}, S2={b},
   S4={a,b}, S5={a,r}, S6={b,r}. *)
let mabc kind m =
  validate m;
  Bound.make ~protocol:Protocol.Mabc ~bound_kind:kind ~num_phases:2
    ~terms:
      [ t_ra ~label:"S1: a->r MAC" [| m.mac_a; 0. |];
        t_ra ~label:"S5: r->b broadcast" [| 0.; m.rb |];
        t_rb ~label:"S2: b->r MAC" [| m.mac_b; 0. |];
        t_rb ~label:"S6: r->a broadcast" [| 0.; m.ra |];
        t_sum ~label:"S4: relay decodes both" [| m.mac_sum; 0. |];
      ]

(* Theorems 3 (inner) / 4 (outer) for TDBC. *)
let tdbc kind m =
  validate m;
  let terms =
    match kind with
    | Bound.Inner ->
      [ t_ra ~label:"relay decodes wa" [| m.ar; 0.; 0. |];
        t_ra ~label:"b: side info + broadcast" [| m.ab; 0.; m.rb |];
        t_rb ~label:"relay decodes wb" [| 0.; m.br; 0. |];
        t_rb ~label:"a: side info + broadcast" [| 0.; m.ba; m.ra |];
      ]
    | Bound.Outer ->
      [ t_ra ~label:"S1: a -> {r,b}" [| m.a_rb; 0.; 0. |];
        t_ra ~label:"S5: direct + broadcast" [| m.ab; 0.; m.rb |];
        t_rb ~label:"S2: b -> {r,a}" [| 0.; m.b_ra; 0. |];
        t_rb ~label:"S6: direct + broadcast" [| 0.; m.ba; m.ra |];
        t_sum ~label:"S4: relay decodes both" [| m.ar; m.br; 0. |];
      ]
  in
  Bound.make ~protocol:Protocol.Tdbc ~bound_kind:kind ~num_phases:3 ~terms

(* Theorems 5 (inner) / 6 (outer) for HBC; phase 3 is the MAC. The outer
   system evaluates Theorem 6 with independent phase-3 inputs (see the
   Gaussian module's documentation for the caveat). *)
let hbc kind m =
  validate m;
  let terms =
    match kind with
    | Bound.Inner ->
      [ t_ra ~label:"relay decodes wa (ph1+ph3)" [| m.ar; 0.; m.mac_a; 0. |];
        t_ra ~label:"b: side info + broadcast" [| m.ab; 0.; 0.; m.rb |];
        t_rb ~label:"relay decodes wb (ph2+ph3)" [| 0.; m.br; m.mac_b; 0. |];
        t_rb ~label:"a: side info + broadcast" [| 0.; m.ba; 0.; m.ra |];
        t_sum ~label:"relay decodes both" [| m.ar; m.br; m.mac_sum; 0. |];
      ]
    | Bound.Outer ->
      [ t_ra ~label:"S1: a -> {r,b} + ph3 MAC" [| m.a_rb; 0.; m.mac_a; 0. |];
        t_ra ~label:"S5: direct + broadcast" [| m.ab; 0.; 0.; m.rb |];
        t_rb ~label:"S2: b -> {r,a} + ph3 MAC" [| 0.; m.b_ra; m.mac_b; 0. |];
        t_rb ~label:"S6: direct + broadcast" [| 0.; m.ba; 0.; m.ra |];
        t_sum ~label:"S4: relay decodes both" [| m.ar; m.br; m.mac_sum; 0. |];
      ]
  in
  Bound.make ~protocol:Protocol.Hbc ~bound_kind:kind ~num_phases:4 ~terms

let bounds protocol kind m =
  match protocol with
  | Protocol.Dt -> { (dt m) with Bound.bound_kind = kind }
  | Protocol.Naive -> { (naive m) with Bound.bound_kind = kind }
  | Protocol.Mabc -> mabc kind m
  | Protocol.Tdbc -> tdbc kind m
  | Protocol.Hbc -> hbc kind m
