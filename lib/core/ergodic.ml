type estimate = { mean : float; ci95 : float * float; blocks : int }

let estimate_of_samples samples =
  { mean = Numerics.Stats.mean samples;
    ci95 = Numerics.Stats.confidence_interval_95 samples;
    blocks = Array.length samples;
  }

let sample_blocks ?(blocks = 2000) fading f =
  if blocks <= 0 then invalid_arg "Ergodic: blocks must be positive";
  Array.init blocks (fun _ -> f (Channel.Fading.draw fading))

let draw_mi ~power gains = Gaussian.mi (Gaussian.scenario_lin ~power ~gains)

(* One Monte-Carlo sample: the full-CSI sum rate at a draw's mutual
   informations, solved straight from the compiled template — the
   float [Optimize.sum_rate] returns — and read from the slot's buffer,
   with no result copy. Samples bypass that function's memo: a
   continuous fading draw never repeats, so every entry would be stored
   and never read. *)
let sample_sum_rate template m =
  let x = Rate_region.solve_template_into template m in
  x.(0) +. x.(1)

(* Template solves are not timed one by one; one span covers the [lps]
   samples of a batch (an estimate, or a table's protocol column), its
   args built only while tracing is on. *)
let cell_span ?power protocol ~lps f =
  let args =
    if Telemetry.Span.enabled () then
      (("protocol", Telemetry.Json.String (Protocol.name protocol))
       :: (match power with
          | Some p -> [ ("power", Telemetry.Json.Float p) ]
          | None -> []))
      @ [ ("lps", Telemetry.Json.Int lps) ]
    else []
  in
  Telemetry.Span.with_span ~cat:"ergodic" "ergodic.cell" ~args f

let ergodic_sum_rate ?(blocks = 2000) fading ~power protocol =
  let t = Rate_region.sum_rate_template protocol Bound.Inner in
  cell_span ~power protocol ~lps:blocks @@ fun () ->
  estimate_of_samples
    (sample_blocks ~blocks fading (fun gains ->
         sample_sum_rate t (draw_mi ~power gains)))

let outage_probability ?blocks fading ~power protocol ~ra ~rb =
  if ra < 0. || rb < 0. then invalid_arg "Ergodic.outage_probability: negative rate";
  let samples =
    sample_blocks ?blocks fading (fun gains ->
        let s = Gaussian.scenario_lin ~power ~gains in
        let b = Gaussian.bounds protocol Bound.Inner s in
        if Rate_region.achievable b ~ra ~rb then 0. else 1.)
  in
  estimate_of_samples samples

let epsilon_outage_sum_rate ?blocks ?(tol = 1e-3) fading ~power protocol
    ~epsilon =
  if epsilon < 0. || epsilon > 1. then
    invalid_arg "Ergodic.epsilon_outage_sum_rate: epsilon outside [0,1]";
  (* outage grows with the target rate, so bisect on the symmetric rate.
     Draws are redrawn per evaluation; that noise is below [tol] for the
     default block counts, and determinism comes from the fading seed. *)
  let outage r =
    (outage_probability ?blocks fading ~power protocol ~ra:r ~rb:r).mean
  in
  (* bracket: 0 has no outage (always achievable); find an upper end *)
  let rec upper r = if outage r > epsilon || r > 64. then r else upper (2. *. r) in
  let hi = upper 0.25 in
  let rec bisect lo hi =
    if hi -. lo < tol then lo
    else
      let mid = (lo +. hi) /. 2. in
      if outage mid <= epsilon then bisect mid hi else bisect lo mid
  in
  2. *. bisect 0. hi

let ergodic_table ?(blocks = 1000) ?(powers_db = [ 0.; 5.; 10. ])
    ?(mean_gains = Channel.Gains.paper_fig4) ?(seed = 2024) () =
  (* every cell averages over the same draws of one seeded process, so
     cells are independent of evaluation order; draw them once, and
     compute each draw's mutual informations once per power *)
  let draws =
    sample_blocks ~blocks
      (Channel.Fading.create ~rng_seed:seed ~mean:mean_gains ())
      Fun.id
  in
  let mis =
    Array.map
      (fun power_db ->
        let power = Numerics.Float_utils.db_to_lin power_db in
        Array.map (draw_mi ~power) draws)
      (Array.of_list powers_db)
  in
  let npowers = Array.length mis in
  (* draw-major: each protocol solves one draw at every power back to
     back, so its carried basis moves between the same gains at
     adjacent powers rather than between two random draws; each sample
     lands in its (power, draw) slot, and each cell still sums its
     draws in draw order *)
  let columns =
    List.map
      (fun protocol ->
        let t = Rate_region.sum_rate_template protocol Bound.Inner in
        let samples = Array.init npowers (fun _ -> Array.make blocks 0.) in
        cell_span protocol ~lps:(blocks * npowers) (fun () ->
            for d = 0 to blocks - 1 do
              for p = 0 to npowers - 1 do
                samples.(p).(d) <- sample_sum_rate t mis.(p).(d)
              done
            done);
        Array.map estimate_of_samples samples)
      Protocol.all
  in
  let rows =
    List.concat
      (List.mapi
         (fun p power_db ->
           List.map2
             (fun protocol estimates ->
               let e = estimates.(p) in
               let lo, hi = e.ci95 in
               [ Printf.sprintf "%g" power_db;
                 Protocol.name protocol;
                 Printf.sprintf "%.4f" e.mean;
                 Printf.sprintf "[%.4f, %.4f]" lo hi;
               ])
             Protocol.all columns)
         powers_db)
  in
  { Figures.table_id = "ergodic";
    table_title =
      "Ergodic (full-CSI adaptive) sum rates under Rayleigh fading, \
       Fig. 4 mean gains";
    headers = [ "P (dB)"; "protocol"; "ergodic sum rate"; "95% CI" ];
    rows;
  }

let outage_figure ?(blocks = 800) ?(samples = 15) ?(power_db = 10.)
    ?(mean_gains = Channel.Gains.paper_fig4) ?(seed = 81) () =
  let power = Numerics.Float_utils.db_to_lin power_db in
  (* sweep targets up to the static-channel optimum of the best protocol *)
  let s_static = Gaussian.scenario_lin ~power ~gains:mean_gains in
  let top =
    (Optimize.best_protocol Bound.Inner s_static).Optimize.sum_rate
  in
  let targets = Numerics.Float_utils.linspace (0.05 *. top) top samples in
  let series =
    List.map
      (fun protocol ->
        let fading = Channel.Fading.create ~rng_seed:seed ~mean:mean_gains () in
        let points =
          Array.to_list
            (Array.map
               (fun sum_target ->
                 let r = sum_target /. 2. in
                 let o =
                   outage_probability ~blocks fading ~power protocol ~ra:r
                     ~rb:r
                 in
                 (sum_target, o.mean))
               targets)
        in
        { Figures.label = Protocol.name protocol; points })
      Protocol.all
  in
  { Figures.id = "outage";
    title =
      Printf.sprintf
        "Outage probability vs symmetric target sum rate (P=%g dB, Rayleigh)"
        power_db;
    xlabel = "target sum rate 2r (bits/use)";
    ylabel = "P(outage)";
    series;
  }
