(* The `bidir` command-line tool: reproduce the paper's figures and
   tables, query rate regions, and run packet-level simulations. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let power_arg =
  let doc = "Per-node transmit power P in dB." in
  Arg.(value & opt float 10. & info [ "P"; "power" ] ~docv:"DB" ~doc)

let gains_args =
  let gab =
    Arg.(value & opt float 0. & info [ "gab" ] ~docv:"DB" ~doc:"Gain of the a-b link (dB).")
  in
  let gar =
    Arg.(value & opt float 5. & info [ "gar" ] ~docv:"DB" ~doc:"Gain of the a-r link (dB).")
  in
  let gbr =
    Arg.(value & opt float 7. & info [ "gbr" ] ~docv:"DB" ~doc:"Gain of the b-r link (dB).")
  in
  let combine g_ab g_ar g_br = Channel.Gains.of_db ~g_ab ~g_ar ~g_br in
  Term.(const combine $ gab $ gar $ gbr)

let protocol_arg =
  let parse s =
    match Bidir.Protocol.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown protocol %S (dt|mabc|tdbc|hbc)" s))
  in
  let print fmt p = Format.fprintf fmt "%s" (Bidir.Protocol.name p) in
  let protocol_converter = Arg.conv (parse, print) in
  Arg.(value & opt protocol_converter Bidir.Protocol.Tdbc
       & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:"Protocol: dt, mabc, tdbc or hbc.")

let kind_arg =
  let doc = "Evaluate the outer (converse) bound instead of the achievable region." in
  let outer = Arg.(value & flag & info [ "outer" ] ~doc) in
  Term.(const (fun o -> if o then Bidir.Bound.Outer else Bidir.Bound.Inner) $ outer)

(* Engine knobs: every evaluation command takes [--domains N] (parallel
   LP sweeps; results are bit-identical for any N), [--stats] (print
   every telemetry counter and histogram to stderr when done), [--trace FILE]
   (record spans and write a Chrome trace), [--metrics FILE] (dump
   the full telemetry registry as JSON) and [--live FILE] (stream
   bidir-live/2 heartbeats while running; tail with `bidir top`). *)
type engine_opts = {
  domains : int;
  stats : bool;
  trace : string option;
  metrics : string option;
  resource : bool;
  live : string option;
  live_interval : float;
}

let engine_args ?(default_domains = 1) () =
  let domains =
    Arg.(value & opt int default_domains
         & info [ "domains" ] ~docv:"N"
             ~doc:(Printf.sprintf
                     "Evaluate LP sweeps on $(docv) parallel domains \
                      (default %d; the output is identical for any \
                      value)." default_domains))
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print every telemetry counter and histogram (LP \
                   solves, memo hits and misses, per-phase wall time as \
                   the sum of its phase.* histogram) to stderr on exit.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record hierarchical spans and write a Chrome \
                   trace-event JSON file on exit; load it in Perfetto \
                   (ui.perfetto.dev) or chrome://tracing.")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Write every telemetry counter and histogram \
                   (count/sum/p50/p90/p99) as JSON to $(docv) on exit.")
  in
  let resource =
    Arg.(value & flag
         & info [ "resource" ]
             ~doc:"Track GC/allocation attribution during the run: the \
                   gc.* counters and linprog.alloc_bytes populate in \
                   $(b,--metrics)/$(b,--stats), and spans recorded under \
                   $(b,--trace) carry per-span GC deltas. Observation \
                   only — results are unchanged.")
  in
  let live =
    Arg.(value & opt (some string) None
         & info [ "live" ] ~docv:"FILE"
             ~doc:"Stream live telemetry (bidir-live/2 JSONL: progress \
                   records and heartbeats carrying the metrics that \
                   changed) to $(docv) while running; follow it with \
                   $(b,bidir top) $(docv). Observation only — outputs \
                   are byte-identical with or without it.")
  in
  let live_interval =
    Arg.(value & opt float 0.
         & info [ "live-interval" ] ~docv:"SECONDS"
             ~doc:"Minimum seconds between live heartbeats (default 0: \
                   emit one at every progress pulse).")
  in
  Term.(const (fun domains stats trace metrics resource live live_interval ->
            { domains; stats; trace; metrics; resource; live; live_interval })
        $ domains $ stats $ trace $ metrics $ resource $ live $ live_interval)

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

(* Run [f] under the wall-time histogram [phase.<label>]: its sum is
   the phase's time in --stats and --metrics, and `bidir check`
   time-bands every [phase.*] histogram. *)
let timed label f =
  Telemetry.Metrics.time (Telemetry.Metrics.histogram ("phase." ^ label)) f

let with_engine opts f =
  if opts.domains < 1 then begin
    Printf.eprintf "--domains must be >= 1\n";
    exit 2
  end;
  Engine.Pool.set_default_domains opts.domains;
  Telemetry.Metrics.reset ();
  if opts.trace <> None then Telemetry.Span.start ();
  if opts.resource then Telemetry.Resource.set_enabled true;
  (match opts.live with
  | None -> ()
  | Some path -> Telemetry.Live.open_live ~interval:opts.live_interval path);
  let f = if opts.resource then fun () -> Telemetry.Resource.account f else f in
  Fun.protect
    ~finally:(fun () ->
      (match opts.live with
      | None -> ()
      | Some path ->
        Telemetry.Live.close_live ();
        Printf.eprintf "live: wrote %s\n" path);
      (match opts.trace with
      | None -> ()
      | Some path ->
        Telemetry.Span.stop ();
        write_file path
          (Telemetry.Sink.chrome_trace_string (Telemetry.Span.events ()));
        Printf.eprintf "trace: wrote %s\n" path);
      (match opts.metrics with
      | None -> ()
      | Some path ->
        write_file path
          (Telemetry.Json.to_string_pretty (Telemetry.Metrics.to_json ()));
        Printf.eprintf "metrics: wrote %s\n" path);
      if opts.stats then prerr_string (Telemetry.Metrics.to_text ()))
    f

(* ------------------------------------------------------------------ *)
(* figures                                                             *)
(* ------------------------------------------------------------------ *)

let figures_cmd =
  let id_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"ID"
             ~doc:"Artifact id: fig3, fig3-snr, fig4a, fig4b, gap, crossover, \
                   hbc-witness, coding-gain, discrete, ergodic, or 'all' \
                   (default).")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of terminal rendering.")
  in
  let svg_arg =
    Arg.(value & flag & info [ "svg" ] ~doc:"Emit a standalone SVG document (figures only).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write each artifact to its own file under DIR (svg for \
                   figures when --svg, txt/csv otherwise) instead of stdout.")
  in
  let run engine id csv svg out =
    with_engine engine @@ fun () ->
    (match out with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    let write name ext content =
      match out with
      | None ->
        print_string content;
        print_newline ()
      | Some dir ->
        let path = Filename.concat dir (name ^ "." ^ ext) in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc content);
        Printf.printf "wrote %s\n" path
    in
    let figure (f : Bidir.Figures.figure) =
      if svg then write f.Bidir.Figures.id "svg" (Report.figure_svg f)
      else if csv then write f.Bidir.Figures.id "csv" (Report.figure_csv f)
      else write f.Bidir.Figures.id "txt" (Report.render_figure f)
    in
    let table (t : Bidir.Figures.table) =
      if csv then write t.Bidir.Figures.table_id "csv" (Report.table_csv t)
      else write t.Bidir.Figures.table_id "txt" (Report.render_table t)
    in
    let emit_string name s = write name "txt" s in
    let rec one = function
      | "fig3" -> figure (Bidir.Figures.fig3 ())
      | "fig3-snr" -> figure (Bidir.Figures.fig3_snr ())
      | "fig4a" -> figure (Bidir.Figures.fig4 ~power_db:0. ())
      | "fig4b" -> figure (Bidir.Figures.fig4 ~power_db:10. ())
      | "gap" -> table (Bidir.Figures.gap_table ())
      | "crossover" -> table (Bidir.Figures.crossover_table ())
      | "hbc-witness" -> table (Bidir.Figures.hbc_witness_table ())
      | "discrete" -> table (Bidir.Figures.discrete_table ())
      | "map" -> emit_string "map" (Report.protocol_map ())
      | "fd-penalty" -> table (Bidir.Fullduplex.penalty_table ())
      | "delay" ->
        table
          (Netsim.Traffic.comparison_table ~power_db:10.
             ~gains:Channel.Gains.paper_fig4 ())
      | "coding-gain" -> table (Bidir.Figures.coding_gain_table ())
      | "power-boost" -> table (Bidir.Power_allocation.boost_table ())
      | "ergodic" -> table (Bidir.Ergodic.ergodic_table ())
      | "outage" -> figure (Bidir.Ergodic.outage_figure ())
      | "all" ->
        (* same artifacts in the same order as before, but each one runs
           under its own phase timer so `--stats` (and `--metrics`)
           report per-artifact wall time; with --live each completed
           artifact also notes its progress and pulses the live writer *)
        let total = 11 and completed = ref 0 in
        let t0 = Unix.gettimeofday () in
        let step id f =
          timed ("artifact:" ^ id) f;
          incr completed;
          if Telemetry.Live.is_open () then begin
            let elapsed = Unix.gettimeofday () -. t0 in
            let rate =
              if elapsed > 0. then float_of_int !completed /. elapsed else 0.
            in
            let eta_seconds =
              if rate > 0. then Some (float_of_int (total - !completed) /. rate)
              else None
            in
            Telemetry.Live.note_progress ~name:"figures"
              ~completed:!completed ~total ~rate ?eta_seconds ()
          end;
          Telemetry.Live.pulse_live ()
        in
        List.iter
          (fun id -> step id (fun () -> one id))
          [ "fig3"; "fig3-snr"; "fig4a"; "fig4b"; "gap"; "crossover";
            "hbc-witness"; "coding-gain"; "discrete" ];
        step "ergodic" (fun () ->
            table (Bidir.Ergodic.ergodic_table ~blocks:400 ()));
        step "map" (fun () -> emit_string "map" (Report.protocol_map ()))
      | other ->
        Printf.eprintf "unknown artifact id %S\n" other;
        exit 2
    in
    one (Option.value ~default:"all" id)
  in
  let doc = "Regenerate the paper's figures and tables." in
  Cmd.v (Cmd.info "figures" ~doc)
    Term.(const run $ engine_args () $ id_arg $ csv_arg $ svg_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* sumrate                                                             *)
(* ------------------------------------------------------------------ *)

let sumrate_cmd =
  let run engine power_db gains kind =
    with_engine engine @@ fun () ->
    let s = Bidir.Gaussian.scenario ~power_db ~gains in
    let rows =
      List.map
        (fun r ->
          let b = Bidir.Gaussian.bounds r.Bidir.Optimize.protocol kind s in
          let binding =
            Bidir.Rate_region.binding_terms ~eps:1e-6 b
              { Bidir.Rate_region.ra = r.Bidir.Optimize.ra;
                rb = r.Bidir.Optimize.rb;
                deltas = r.Bidir.Optimize.deltas;
              }
          in
          [ Bidir.Protocol.name r.Bidir.Optimize.protocol;
            Printf.sprintf "%.4f" r.Bidir.Optimize.sum_rate;
            Printf.sprintf "%.4f" r.Bidir.Optimize.ra;
            Printf.sprintf "%.4f" r.Bidir.Optimize.rb;
            String.concat " "
              (Array.to_list
                 (Array.map (Printf.sprintf "%.3f") r.Bidir.Optimize.deltas));
            String.concat "; "
              (List.map (fun (t : Bidir.Bound.term) -> t.Bidir.Bound.label) binding);
          ])
        (Bidir.Optimize.all_sum_rates kind s)
    in
    Printf.printf "Optimal sum rates, %s bound, P = %g dB, %s\n\n"
      (Bidir.Bound.kind_name kind) power_db
      (Format.asprintf "%a" Channel.Gains.pp gains);
    print_string
      (Chart.Table.render
         ~headers:
           [ "protocol"; "sum rate"; "Ra"; "Rb"; "durations";
             "binding constraints" ]
         ~rows)
  in
  let doc = "Optimal sum rates of all protocols on one channel." in
  Cmd.v (Cmd.info "sumrate" ~doc)
    Term.(const run $ engine_args () $ power_arg $ gains_args $ kind_arg)

(* ------------------------------------------------------------------ *)
(* region                                                              *)
(* ------------------------------------------------------------------ *)

let region_cmd =
  let run engine power_db gains protocol kind =
    with_engine engine @@ fun () ->
    let s = Bidir.Gaussian.scenario ~power_db ~gains in
    let b = Bidir.Gaussian.bounds protocol kind s in
    let pts = Bidir.Rate_region.boundary b in
    Printf.printf "%s %s region boundary, P = %g dB (%d vertices):\n"
      (Bidir.Protocol.name protocol)
      (Bidir.Bound.kind_name kind) power_db (List.length pts);
    List.iter
      (fun (p : Numerics.Vec2.t) ->
        Printf.printf "  Ra=%.4f Rb=%.4f\n" p.Numerics.Vec2.x p.Numerics.Vec2.y)
      pts;
    Printf.printf "area: %.4f\n\n" (Bidir.Rate_region.area b);
    let series =
      [ { Chart.Line_chart.label =
            Bidir.Protocol.name protocol ^ " " ^ Bidir.Bound.kind_name kind;
          points =
            List.map
              (fun (p : Numerics.Vec2.t) ->
                (p.Numerics.Vec2.x, p.Numerics.Vec2.y))
              pts;
        }
      ]
    in
    let config =
      { Chart.Line_chart.default_config with
        Chart.Line_chart.xlabel = "Ra (bits/use)";
        ylabel = "Rb (bits/use)";
      }
    in
    print_string (Chart.Line_chart.render_xy ~config series)
  in
  let doc = "Trace one protocol's rate-region boundary." in
  Cmd.v (Cmd.info "region" ~doc)
    Term.(const run $ engine_args () $ power_arg $ gains_args $ protocol_arg
          $ kind_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let blocks_arg =
    Arg.(value & opt int 200 & info [ "blocks" ] ~docv:"N" ~doc:"Number of protocol blocks.")
  in
  let fading_arg =
    Arg.(value & flag & info [ "fading" ] ~doc:"Rayleigh block fading (mean = given gains).")
  in
  let fixed_arg =
    Arg.(value & flag
         & info [ "fixed" ]
             ~doc:"Fix the schedule to the mean-gain optimum instead of adapting per block.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let detailed_arg =
    Arg.(value & flag
         & info [ "detailed" ]
             ~doc:"Use the fully event-driven simulator (explicit radio \
                   medium) instead of the block-level one.")
  in
  let run engine power_db gains protocol blocks fading fixed seed detailed =
    with_engine engine @@ fun () ->
    let base =
      Netsim.Runner.default_config ~protocol ~power_db ~gains ~blocks ~seed ()
    in
    let cfg =
      { base with
        Netsim.Runner.fading =
          (if fading then Channel.Fading.create ~rng_seed:seed ~mean:gains ()
           else Channel.Fading.static gains);
        mode =
          (if fixed then begin
             let s = Bidir.Gaussian.scenario ~power_db ~gains in
             let opt = Bidir.Optimize.sum_rate protocol Bidir.Bound.Inner s in
             Netsim.Runner.Fixed
               { deltas = opt.Bidir.Optimize.deltas;
                 ra = opt.Bidir.Optimize.ra;
                 rb = opt.Bidir.Optimize.rb;
               }
           end
           else Netsim.Runner.Adaptive { backoff = 0. });
      }
    in
    let r = if detailed then Netsim.Detailed.run cfg else Netsim.Runner.run cfg in
    let m = r.Netsim.Runner.metrics in
    Printf.printf "%s, %s channel, %s schedule, %s simulator, %d blocks:\n"
      (Bidir.Protocol.name protocol)
      (if fading then "fading" else "static")
      (if fixed then "fixed" else "adaptive")
      (if detailed then "event-driven" else "block-level")
      blocks;
    Printf.printf "  throughput          %.4f bits/use\n" (Netsim.Metrics.throughput m);
    Printf.printf "  analytic optimum    %.4f bits/use (mean over blocks)\n"
      r.Netsim.Runner.analytic_mean_sum_rate;
    Printf.printf "  outage rate         %.2f%%\n" (100. *. Netsim.Metrics.outage_rate m);
    Printf.printf "  delivered bits      %d\n" (Netsim.Metrics.delivered_bits m);
    Printf.printf "  undetected errors   %d\n" (Netsim.Metrics.bit_errors m);
    (match Netsim.Metrics.phase_outages m with
    | [] -> ()
    | outages ->
      Printf.printf "  outages by phase    %s\n"
        (String.concat ", "
           (List.map (fun (ph, n) -> Printf.sprintf "ph%d:%d" ph n) outages)))
  in
  let doc = "Run the packet-level simulator." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const run $ engine_args () $ power_arg $ gains_args $ protocol_arg
          $ blocks_arg $ fading_arg $ fixed_arg $ seed_arg $ detailed_arg)

(* ------------------------------------------------------------------ *)
(* select                                                              *)
(* ------------------------------------------------------------------ *)

let select_cmd =
  let positions_arg =
    Arg.(value & opt (list float) [ 0.25; 0.5; 0.75 ]
         & info [ "positions" ] ~docv:"D1,D2,..."
             ~doc:"Candidate relay positions on the a-b segment.")
  in
  let exponent_arg =
    Arg.(value & opt float 3. & info [ "alpha" ] ~docv:"A" ~doc:"Path-loss exponent.")
  in
  let run engine power_db positions exponent =
    with_engine engine @@ fun () ->
    let pl = Channel.Pathloss.make ~exponent () in
    let cands = Bidir.Relay_selection.candidates_on_line pl ~positions in
    let power = Numerics.Float_utils.db_to_lin power_db in
    let rows =
      List.map
        (fun cand ->
          let c = Bidir.Relay_selection.best ~power [ cand ] in
          [ cand.Bidir.Relay_selection.relay_id;
            Bidir.Protocol.name c.Bidir.Relay_selection.protocol;
            Printf.sprintf "%.4f" c.Bidir.Relay_selection.sum_rate;
          ])
        cands
    in
    print_string
      (Chart.Table.render
         ~headers:[ "candidate"; "best protocol"; "sum rate" ]
         ~rows);
    let best = Bidir.Relay_selection.best ~power cands in
    Printf.printf "\nselected: %s with %s (%.4f bits/use)\n"
      best.Bidir.Relay_selection.relay.Bidir.Relay_selection.relay_id
      (Bidir.Protocol.name best.Bidir.Relay_selection.protocol)
      best.Bidir.Relay_selection.sum_rate;
    let sel, fixed = Bidir.Relay_selection.selection_gain ~power cands in
    Printf.printf
      "under fading: opportunistic selection %.4f vs fixed first candidate \
       %.4f (+%.1f%%)\n"
      sel fixed
      (100. *. ((sel /. fixed) -. 1.))
  in
  let doc = "Choose the best relay among candidates on the a-b line." in
  Cmd.v (Cmd.info "select" ~doc)
    Term.(const run $ engine_args () $ power_arg $ positions_arg
          $ exponent_arg)

(* ------------------------------------------------------------------ *)
(* arq                                                                 *)
(* ------------------------------------------------------------------ *)

let arq_cmd =
  let backoff_arg =
    Arg.(value & opt float 0.3
         & info [ "backoff" ] ~docv:"F"
             ~doc:"Rate backoff fraction relative to the mean-gain optimum.")
  in
  let messages_arg =
    Arg.(value & opt int 300 & info [ "messages" ] ~docv:"N" ~doc:"Message pairs.")
  in
  let retries_arg =
    Arg.(value & opt int 8 & info [ "retries" ] ~docv:"K" ~doc:"Retry budget per pair.")
  in
  let run engine power_db gains protocol backoff messages max_retries =
    with_engine engine @@ fun () ->
    let s = Bidir.Gaussian.scenario ~power_db ~gains in
    let opt = Bidir.Optimize.sum_rate protocol Bidir.Bound.Inner s in
    let r =
      Netsim.Arq.run
        { Netsim.Arq.protocol;
          power = Numerics.Float_utils.db_to_lin power_db;
          fading = Channel.Fading.create ~rng_seed:17 ~mean:gains ();
          deltas = opt.Bidir.Optimize.deltas;
          ra = opt.Bidir.Optimize.ra *. (1. -. backoff);
          rb = opt.Bidir.Optimize.rb *. (1. -. backoff);
          block_symbols = 2_000;
          messages;
          max_retries;
          seed = 23;
        }
    in
    Printf.printf "%s + ARQ under Rayleigh fading (backoff %.0f%%):\n"
      (Bidir.Protocol.name protocol) (100. *. backoff);
    Printf.printf "  delivered pairs   %d / %d\n" r.Netsim.Arq.delivered_pairs messages;
    Printf.printf "  dropped pairs     %d\n" r.Netsim.Arq.dropped_pairs;
    Printf.printf "  goodput           %.4f bits/use\n" r.Netsim.Arq.goodput;
    Printf.printf "  attempts/pair     %.2f (max %d)\n" r.Netsim.Arq.mean_attempts
      r.Netsim.Arq.max_attempts_seen;
    Printf.printf "  blocks consumed   %d\n" r.Netsim.Arq.total_blocks
  in
  let doc = "Fixed-rate schedule with stop-and-wait ARQ under fading." in
  Cmd.v (Cmd.info "arq" ~doc)
    Term.(const run $ engine_args () $ power_arg $ gains_args $ protocol_arg
          $ backoff_arg $ messages_arg $ retries_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let lo_arg = Arg.(value & opt float (-10.) & info [ "from" ] ~docv:"DB" ~doc:"Sweep start (dB).") in
  let hi_arg = Arg.(value & opt float 25. & info [ "to" ] ~docv:"DB" ~doc:"Sweep end (dB).") in
  let steps_arg = Arg.(value & opt int 15 & info [ "steps" ] ~docv:"N" ~doc:"Sweep points.") in
  let run engine gains lo hi steps =
    with_engine engine @@ fun () ->
    let rows =
      Array.to_list
        (Array.map
           (fun power_db ->
             let s = Bidir.Gaussian.scenario ~power_db ~gains in
             let rates = Bidir.Optimize.all_sum_rates Bidir.Bound.Inner s in
             let best = Bidir.Optimize.best_protocol Bidir.Bound.Inner s in
             Printf.sprintf "%7.2f" power_db
             :: List.map
                  (fun r -> Printf.sprintf "%.4f" r.Bidir.Optimize.sum_rate)
                  rates
             @ [ Bidir.Protocol.name best.Bidir.Optimize.protocol ])
           (Numerics.Float_utils.linspace lo hi steps))
    in
    print_string
      (Chart.Table.render
         ~headers:[ "P (dB)"; "DT"; "NAIVE"; "MABC"; "TDBC"; "HBC"; "best" ]
         ~rows);
    print_newline ();
    let crossings =
      Bidir.Optimize.crossover_powers_db ~lo_db:lo ~hi_db:hi
        (Bidir.Protocol.Mabc, Bidir.Protocol.Tdbc)
        ~gains Bidir.Bound.Inner
    in
    match crossings with
    | [] -> print_endline "no MABC/TDBC crossover in the sweep range"
    | xs ->
      Printf.printf "MABC/TDBC crossover at: %s\n"
        (String.concat ", " (List.map (Printf.sprintf "%.2f dB") xs))
  in
  let doc = "Sweep transmit power and report per-protocol sum rates." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ engine_args () $ gains_args $ lo_arg $ hi_arg
          $ steps_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let workload_arg =
    Arg.(value & opt string "figures"
         & info [ "workload" ] ~docv:"W"
             ~doc:"Workload to run under the profiler: $(b,figures) (a \
                   reduced figure pass plus a short event-driven \
                   simulation), $(b,sweep) (a power sweep of every \
                   protocol), $(b,netsim) (the event-driven simulator \
                   alone), $(b,campaign) (a sharded Monte-Carlo ergodic \
                   campaign fanned across the domain pool), or \
                   $(b,network) (a multi-pair rate table plus LP and \
                   greedy relay assignment).")
  in
  let flame_arg =
    Arg.(value & opt (some string) None
         & info [ "flame" ] ~docv:"FILE"
             ~doc:"Write a collapsed-stack flamegraph (span-path lines \
                   weighted by self-time microseconds) to $(docv); \
                   enables span collection even without $(b,--trace). \
                   Render with flamegraph.pl or load into speedscope.")
  in
  let focus_arg =
    Arg.(value & opt (some string) None
         & info [ "focus" ] ~docv:"NAME"
             ~doc:"Restrict the flamegraph and self-time report to \
                   span paths containing $(docv), re-rooted at its \
                   first occurrence.")
  in
  let run engine workload flame focus =
    with_engine engine @@ fun () ->
    (* resource attribution is the point of profiling: always on here *)
    Telemetry.Resource.set_enabled true;
    if flame <> None && not (Telemetry.Span.enabled ()) then
      Telemetry.Span.start ();
    let netsim blocks =
      ignore
        (Netsim.Detailed.run
           (Netsim.Runner.default_config ~protocol:Bidir.Protocol.Tdbc
              ~power_db:10. ~gains:Channel.Gains.paper_fig4 ~blocks
              ~block_symbols:1_000 ()))
    in
    Telemetry.Resource.account (fun () ->
        match workload with
        | "figures" ->
          (* touches every instrumented layer: pool fan-out, LP solves,
             memo caches, figure spans, then the discrete-event loop *)
          timed "profile:figures" (fun () ->
              ignore (Bidir.Figures.fig3 ~samples:9 ());
              ignore (Bidir.Figures.fig4 ~power_db:0. ());
              ignore (Bidir.Figures.gap_table ()));
          timed "profile:netsim" (fun () -> netsim 20)
        | "sweep" ->
          timed "profile:sweep" (fun () ->
              Array.iter
                (fun power_db ->
                  let s =
                    Bidir.Gaussian.scenario ~power_db
                      ~gains:Channel.Gains.paper_fig4
                  in
                  ignore (Bidir.Optimize.all_sum_rates Bidir.Bound.Inner s))
                (Numerics.Float_utils.linspace (-10.) 25. 36))
        | "netsim" ->
          timed "profile:netsim" (fun () -> netsim 200)
        | "campaign" ->
          (* exercises the pool utilization accounting: batches of
             replications fan across [--domains] domains, so
             engine.pool.busy/idle_seconds and
             campaign.pool_idle_seconds populate *)
          timed "profile:campaign" (fun () ->
              ignore
                (Campaign.Runner.run
                   (Campaign.Runner.default_config ~seed:11
                      ~domains:engine.domains ~batch:12 ~replications:48 ())
                   (Campaign.Workloads.ergodic ~blocks_per_rep:60 ())
                  : Campaign.Runner.result))
        | "network" ->
          timed "profile:network" (fun () ->
              let scenario =
                Network.Scenario.random ~pairs:48 ~relays:3 ~seed:19 ()
              in
              let table = Network.Assign.rate_table scenario in
              ignore
                (Network.Assign.solve_table Network.Assign.Lp table
                  : Network.Assign.solution);
              ignore
                (Network.Assign.solve_table Network.Assign.Greedy table
                  : Network.Assign.solution))
        | other ->
          Printf.eprintf
            "unknown workload %S (figures|sweep|netsim|campaign|network)\n"
            other;
          exit 2);
    if Telemetry.Span.enabled () then begin
      let t = Telemetry.Analyze.analyze (Telemetry.Span.events ()) in
      (match flame with
      | Some path ->
        write_file path (Telemetry.Analyze.collapsed ?focus t);
        Printf.eprintf "flame: wrote %s\n" path
      | None -> ());
      print_string (Telemetry.Analyze.report ?focus ~top:10 t)
    end;
    print_string (Telemetry.Metrics.to_text ())
  in
  let doc =
    "Run an instrumented workload and report telemetry (counters, \
     histogram percentiles, GC/allocation attribution, a self-time \
     table; optionally a Chrome trace and a collapsed-stack flamegraph)."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ engine_args ~default_domains:2 () $ workload_arg
          $ flame_arg $ focus_arg)

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)
(* ------------------------------------------------------------------ *)

let campaign_cmd =
  let workload_arg =
    Arg.(value & opt string "ergodic"
         & info [ "workload" ] ~docv:"W"
             ~doc:(Printf.sprintf "Replication workload: %s."
                     (String.concat ", " Campaign.Workloads.names)))
  in
  let replications_arg =
    Arg.(value & opt int 200
         & info [ "n"; "replications" ] ~docv:"N"
             ~doc:"Target number of replications.")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Root of the replication substream tree; together with \
                   the workload it fully determines the output.")
  in
  let batch_arg =
    Arg.(value & opt int 32
         & info [ "batch" ] ~docv:"K"
             ~doc:"Replications per scheduling round (checkpoint and \
                   stopping-rule granularity). Independent of \
                   $(b,--domains), so checkpoints and early stops do not \
                   depend on the parallelism either.")
  in
  let ci_target_arg =
    Arg.(value & opt (some float) None
         & info [ "ci-target" ] ~docv:"W"
             ~doc:"Stop early once every value metric's 95% confidence \
                   half-width is at most $(docv) (checked at batch \
                   boundaries).")
  in
  let checkpoint_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Write a resumable JSON checkpoint to $(docv) after \
                   every batch.")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Load $(b,--checkpoint) and continue from its completed \
                   count; the final result is byte-identical to an \
                   uninterrupted run.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the result JSON to $(docv) instead of stdout.")
  in
  let run engine workload replications seed batch ci_target checkpoint resume
      out =
    with_engine engine @@ fun () ->
    match Campaign.Workloads.by_name workload with
    | None ->
      Printf.eprintf "unknown workload %S (%s)\n" workload
        (String.concat "|" Campaign.Workloads.names);
      exit 2
    | Some make ->
      let cfg =
        { Campaign.Runner.seed;
          replications;
          domains = engine.domains;
          batch;
          checkpoint;
          resume;
          ci_target;
          on_progress = None;
        }
      in
      let result =
        try Campaign.Runner.run cfg (make ())
        with Invalid_argument msg ->
          Printf.eprintf "campaign: %s\n" msg;
          exit 2
      in
      let rendered =
        Telemetry.Json.to_string_pretty
          (Campaign.Runner.result_to_json result)
        ^ "\n"
      in
      (match out with
      | None -> print_string rendered
      | Some path ->
        write_file path rendered;
        Printf.eprintf "campaign: wrote %s\n" path)
  in
  let doc =
    "Run a sharded Monte-Carlo replication campaign over a netsim \
     workload."
  in
  let man =
    [ `S Manpage.s_description;
      `P "Fans $(b,--replications) independent replications of the chosen \
          workload across $(b,--domains) worker domains. Replication \
          $(i,i) always draws from the $(i,i)-th substream of a fixed \
          RNG split tree rooted at $(b,--seed), and results merge in \
          replication order, so the output is byte-identical for every \
          domain count — parallelism changes wall time only.";
      `P "With $(b,--checkpoint) the campaign can be interrupted and \
          resumed ($(b,--resume)) without changing the result; with \
          $(b,--ci-target) it stops as soon as every metric's 95% \
          confidence interval is tight enough.";
    ]
  in
  Cmd.v (Cmd.info "campaign" ~doc ~man)
    Term.(const run $ engine_args () $ workload_arg $ replications_arg
          $ seed_arg $ batch_arg $ ci_target_arg $ checkpoint_arg
          $ resume_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* network                                                             *)
(* ------------------------------------------------------------------ *)

let network_cmd =
  let pairs_arg =
    Arg.(value & opt int 16
         & info [ "pairs" ] ~docv:"K"
             ~doc:"Number of terminal pairs in the random topology.")
  in
  let relays_arg =
    Arg.(value & opt int 3
         & info [ "relays" ] ~docv:"R"
             ~doc:"Number of shared candidate relays.")
  in
  let assign_arg =
    let parse s =
      match Network.Assign.strategy_of_string s with
      | Some st -> Ok st
      | None -> Error (`Msg (Printf.sprintf "unknown strategy %S (greedy|lp)" s))
    in
    let print fmt st =
      Format.fprintf fmt "%s" (Network.Assign.strategy_name st)
    in
    Arg.(value & opt (conv (parse, print)) Network.Assign.Lp
         & info [ "assign" ] ~docv:"STRATEGY"
             ~doc:"Airtime assignment: $(b,greedy) (independent per-pair \
                   selection, equal split per relay) or $(b,lp) (the \
                   coupled fractional-matching LP).")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Topology seed; together with --pairs/--relays it fully \
                   determines the scenario and hence the output.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the solution JSON to $(docv) (deterministic: \
                   byte-identical for any --domains).")
  in
  let run engine pairs relays strategy seed out =
    with_engine engine @@ fun () ->
    if pairs < 1 || relays < 1 then begin
      Printf.eprintf "--pairs and --relays must be >= 1\n";
      exit 2
    end;
    let scenario = Network.Scenario.random ~pairs ~relays ~seed () in
    (* three coarse live-progress stages: the rate table dominates the
       wall time (pairs * relays * protocols rate-region solves) *)
    let stage completed =
      Telemetry.Live.note_progress ~name:"network" ~completed ~total:3 ();
      Telemetry.Live.pulse_live ()
    in
    let table = Network.Assign.rate_table scenario in
    stage 1;
    let solution = Network.Assign.solve_table strategy table in
    stage 2;
    (* the greedy baseline reuses the evaluated table, so reporting the
       coordination gap costs no further rate-region LPs *)
    let greedy =
      match strategy with
      | Network.Assign.Greedy -> solution
      | Network.Assign.Lp ->
        Network.Assign.solve_table Network.Assign.Greedy table
    in
    stage 3;
    Printf.printf
      "network: %d pairs, %d relays, seed %d, %s assignment\n" pairs relays
      seed
      (Network.Assign.strategy_name strategy);
    if pairs <= 24 then begin
      let rows =
        List.map
          (fun (l : Network.Assign.link) ->
            [ l.Network.Assign.pair_id;
              l.Network.Assign.relay_id;
              Bidir.Protocol.name l.Network.Assign.protocol;
              Printf.sprintf "%.4f" l.Network.Assign.standalone;
              Printf.sprintf "%.3f" l.Network.Assign.share;
              Printf.sprintf "%.4f" l.Network.Assign.rate;
            ])
          solution.Network.Assign.links
      in
      print_string
        (Chart.Table.render
           ~headers:[ "pair"; "relay"; "protocol"; "standalone"; "share";
                      "rate" ]
           ~rows)
    end;
    let rates = List.map snd solution.Network.Assign.per_pair in
    let served = List.filter (fun r -> r > 1e-9) rates in
    Printf.printf "aggregate sum rate  %.4f bits/use\n"
      solution.Network.Assign.sum_rate;
    Printf.printf "pairs served        %d / %d\n" (List.length served) pairs;
    Printf.printf "mean pair rate      %.4f bits/use\n"
      (solution.Network.Assign.sum_rate /. float_of_int pairs);
    (match strategy with
    | Network.Assign.Greedy -> ()
    | Network.Assign.Lp ->
      Printf.printf
        "greedy baseline     %.4f bits/use (LP gains %+.2f%%); %d \
         assignment pivots\n"
        greedy.Network.Assign.sum_rate
        (100.
        *. ((solution.Network.Assign.sum_rate
             /. Float.max greedy.Network.Assign.sum_rate 1e-12)
           -. 1.))
        solution.Network.Assign.assignment_pivots);
    match out with
    | None -> ()
    | Some path ->
      let json =
        Telemetry.Json.Obj
          [ ("schema", Telemetry.Json.String "bidir-network/1");
            ("pairs", Telemetry.Json.Int pairs);
            ("relays", Telemetry.Json.Int relays);
            ("seed", Telemetry.Json.Int seed);
            ("greedy_sum_rate",
             Telemetry.Json.Float greedy.Network.Assign.sum_rate);
            ("solution", Network.Assign.to_json solution);
          ]
      in
      write_file path (Telemetry.Json.to_string_pretty json ^ "\n");
      Printf.eprintf "network: wrote %s\n" path
  in
  let doc =
    "Solve relay assignment and airtime scheduling on a random K-pair, \
     R-relay topology."
  in
  let man =
    [ `S Manpage.s_description;
      `P "Draws a deterministic random topology ($(b,--seed)), evaluates \
          the standalone optimal sum rate of every (pair, relay, protocol) \
          triple with the single-pair machinery (fanned across \
          $(b,--domains); byte-identical for any count), and allocates \
          relay airtime either greedily or by the coupled assignment LP. \
          See docs/NETWORK.md for the model.";
    ]
  in
  Cmd.v (Cmd.info "network" ~doc ~man)
    Term.(const run $ engine_args () $ pairs_arg $ relays_arg $ assign_arg
          $ seed_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

(* The gate's workload must be deterministic so counters diff exactly:
   one domain (no pool-chunk nondeterminism), cold caches, a fresh
   registry, fixed seeds. It touches every instrumented layer — LP
   solves and pivots, memo caches, figure evaluation, the event-driven
   simulator — in a few seconds. *)
let check_workload () =
  Engine.Pool.set_default_domains 1;
  Engine.Memo.clear_all ();
  Telemetry.Metrics.reset ();
  (* resource tracking on: linprog.alloc_bytes is deterministic for
     this single-domain workload, so the allocation budget gates
     one-sided exactly like the pivot budget (the noisy gc.* process
     totals are Ignored by the policy) *)
  Telemetry.Resource.set_enabled true;
  (* stream to a throwaway live file so the telemetry.stream.* counters
     are exercised and gated: the campaign leg below runs 4 batches, so
     exactly 4 progress records and 5 heartbeats (one per batch plus the
     closing flush) are part of the baseline *)
  let live_tmp = Filename.temp_file "bidir-check-live" ".jsonl" in
  Telemetry.Live.open_live ~interval:0. live_tmp;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Live.close_live ();
      try Sys.remove live_tmp with Sys_error _ -> ())
  @@ fun () ->
  Telemetry.Resource.account @@ fun () ->
  timed "check:figures" (fun () ->
      ignore (Bidir.Figures.fig3 ~samples:9 () : Bidir.Figures.figure);
      ignore (Bidir.Figures.fig4 ~power_db:0. () : Bidir.Figures.figure);
      ignore (Bidir.Figures.gap_table () : Bidir.Figures.table));
  timed "check:netsim" (fun () ->
      ignore
        (Netsim.Detailed.run
           (Netsim.Runner.default_config ~protocol:Bidir.Protocol.Tdbc
              ~power_db:10. ~gains:Channel.Gains.paper_fig4 ~blocks:20
              ~block_symbols:1_000 ())
          : Netsim.Runner.result));
  (* a smoke campaign over the outage workload: gates the replication
     count and the merged delivery/outage counters exactly *)
  timed "check:campaign" (fun () ->
      ignore
        (Campaign.Runner.run
           (Campaign.Runner.default_config ~seed:7 ~batch:16 ~replications:64
              ())
           (Campaign.Workloads.runner ~blocks_per_rep:10 ~block_symbols:400 ())
          : Campaign.Runner.result));
  (* a fixed multi-pair network solve: gates the assignment-LP pivot
     budget (network.assignment_pivots, one-sided) and the per-pair
     sum-rate histogram exactly *)
  timed "check:network" (fun () ->
      let scenario = Network.Scenario.random ~pairs:12 ~relays:3 ~seed:5 () in
      let table = Network.Assign.rate_table scenario in
      ignore
        (Network.Assign.solve_table Network.Assign.Lp table
          : Network.Assign.solution);
      ignore
        (Network.Assign.solve_table Network.Assign.Greedy table
          : Network.Assign.solution));
  (* the serving layer's admission path: a fixed 16-query pool fed
     twice in batches of 8 — the first pass is all cache misses, the
     second all hits — so serve.requests (32), serve.cache_hits (16),
     serve.cache_misses (16) and the batch-size histogram gate
     exactly, while serve.request_seconds stays in the wall-time
     band *)
  timed "check:serve" (fun () ->
      let pool = Serve.Scenarios.check_pool () in
      let rec batches = function
        | [] -> []
        | qs ->
          let rec take n = function
            | x :: rest when n > 0 ->
              let h, t = take (n - 1) rest in
              (x :: h, t)
            | rest -> ([], rest)
          in
          let batch, rest = take 8 qs in
          batch :: batches rest
      in
      List.iter
        (fun batch ->
          ignore (Serve.Service.respond_batch batch : string list))
        (batches (pool @ pool)))

let check_cmd =
  let against_arg =
    Arg.(required & opt (some string) None
         & info [ "against" ] ~docv:"FILE"
             ~doc:"Baseline snapshot to diff against (written by a \
                   previous $(b,--update) run).")
  in
  let tolerance_arg =
    Arg.(value & opt float 50.
         & info [ "tolerance" ] ~docv:"PCT"
             ~doc:"Relative band (percent) allowed on the mean of \
                   wall-time histograms. Deterministic counters always \
                   compare exactly.")
  in
  let update_arg =
    Arg.(value & flag
         & info [ "update" ]
             ~doc:"Overwrite $(b,--against) FILE with this run's \
                   snapshot instead of diffing (accept the current \
                   behaviour as the new baseline).")
  in
  let report_arg =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Also write the regression report as JSON to $(docv).")
  in
  let label_arg =
    Arg.(value & opt string "check"
         & info [ "label" ] ~docv:"LABEL"
             ~doc:"Label recorded in the captured snapshot.")
  in
  let run against tolerance update report label =
    if tolerance < 0. then begin
      Printf.eprintf "--tolerance must be >= 0\n";
      exit 2
    end;
    check_workload ();
    let current = Telemetry.Snapshot.capture ~label () in
    if update then begin
      Telemetry.Snapshot.save against current;
      Printf.printf "check: wrote baseline %s (%d counters, %d histograms)\n"
        against
        (List.length current.Telemetry.Snapshot.counters)
        (List.length current.Telemetry.Snapshot.histograms)
    end
    else
      match Telemetry.Snapshot.load against with
      | Error m ->
        Printf.eprintf
          "check: cannot load baseline %s: %s\n\
           (run `bidir check --against %s --update` to create it)\n"
          against m against;
        exit 2
      | Ok base ->
        let policy =
          Telemetry.Snapshot.default_policy ~tolerance:(tolerance /. 100.) ()
        in
        let d = Telemetry.Snapshot.diff ~policy base current in
        print_string (Report.Regression.render_text d);
        (match report with
        | None -> ()
        | Some path ->
          write_file path
            (Telemetry.Json.to_string_pretty (Report.Regression.to_json d));
          Printf.eprintf "check: wrote %s\n" path);
        if not (Telemetry.Snapshot.ok d) then exit 1
  in
  let doc =
    "Replay the deterministic reproduction workload and diff its \
     telemetry snapshot against a baseline (the regression gate)."
  in
  let man =
    [ `S Manpage.s_description;
      `P "Runs a fixed instrumented workload (figure sweeps, LP solves, \
          memo caches, the event-driven simulator; one domain, cold \
          caches), captures the full metrics registry, and structurally \
          diffs it against the baseline snapshot in $(b,--against).";
      `P "Deterministic counters (LP solves, memo hits/misses, simulator \
          events) and value histograms must match exactly — drift there \
          is a correctness signal. Resource budgets (linprog.pivots, \
          linprog.refactor_eliminations, network.assignment_pivots, \
          linprog.alloc_bytes, and the campaign.pool_idle_seconds \
          histogram) gate one-sided: staying at or under the baseline \
          passes, so an improvement needs no baseline refresh, while a \
          regression fails the gate. Wall-time histograms \
          (lp.solve_seconds, phase.*, engine.pool.*_seconds) only need \
          an identical sample count and a mean within $(b,--tolerance) \
          percent; the gc.* process totals are ignored.";
      `P "The workload also streams to a throwaway live file, so the \
          telemetry.stream.* counters are part of the baseline: the \
          progress-record and heartbeat counts compare exactly.";
      `P "Exits 0 when the diff has no violations, 1 on regression, 2 on \
          usage or IO errors.";
    ]
  in
  Cmd.v (Cmd.info "check" ~doc ~man)
    Term.(const run $ against_arg $ tolerance_arg $ update_arg $ report_arg
          $ label_arg)

(* ------------------------------------------------------------------ *)
(* serve / loadgen                                                     *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR"
             ~doc:"Bind address (default 127.0.0.1).")
  in
  let port_arg =
    Arg.(value & opt int 8090
         & info [ "port" ] ~docv:"PORT"
             ~doc:"TCP port to listen on; 0 picks an ephemeral port \
                   (default 8090).")
  in
  let port_file_arg =
    Arg.(value & opt (some string) None
         & info [ "port-file" ] ~docv:"FILE"
             ~doc:"Write the bound port to $(docv) once listening — how \
                   scripts discover an ephemeral $(b,--port) 0.")
  in
  let batch_arg =
    Arg.(value & opt int 64
         & info [ "batch-max" ] ~docv:"N"
             ~doc:"Admit at most $(docv) queries per pool batch \
                   (default 64).")
  in
  let max_requests_arg =
    Arg.(value & opt (some int) None
         & info [ "max-requests" ] ~docv:"N"
             ~doc:"Exit after answering $(docv) query requests (for \
                   bounded smoke runs).")
  in
  let no_shutdown_arg =
    Arg.(value & flag
         & info [ "no-shutdown-endpoint" ]
             ~doc:"Do not serve POST /shutdown (run until killed or \
                   $(b,--max-requests)).")
  in
  let run engine host port port_file batch_max max_requests no_shutdown =
    with_engine engine @@ fun () ->
    if batch_max < 1 then begin
      Printf.eprintf "--batch-max must be >= 1\n";
      exit 2
    end;
    Engine.Pool.prewarm ();
    ignore
      (Serve.Server.run
         { Serve.Server.host; port; port_file; batch_max; max_requests;
           allow_shutdown = not no_shutdown; quiet = false }
        : int)
  in
  let doc = "Run the long-lived HTTP query-serving daemon." in
  let man =
    [ `S Manpage.s_description;
      `P "Serves rate-region, protocol-selection and sum-rate queries \
          as JSON over a dependency-free HTTP/1.1 loop. Queries are \
          admitted through a memo-backed response cache; the misses of \
          each round are deduplicated and evaluated in one \
          $(b,--domains)-wide pool batch on warm per-domain LP solver \
          slots, so the steady-state path allocates near zero.";
      `P "Endpoints: GET /v1/sumrate, /v1/select, /v1/region (URL \
          parameters power_db, g_ab, g_ar, g_br, bound, protocol, \
          weights), POST /v1/query (same fields as a JSON body with \
          \"kind\"), GET /healthz, GET /metrics, POST /shutdown. \
          Responses are pure functions of the query — no timestamps, \
          floats quantized at 1e-6 — so identical queries are \
          byte-identical at any domain count.";
      `P "Observability rides the engine flags: $(b,--metrics) dumps \
          the serve.* counters and latency histogram on exit, \
          $(b,--live) streams them for $(b,bidir top), $(b,--trace) \
          records the batch spans. See docs/SERVING.md.";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(const run $ engine_args () $ host_arg $ port_arg $ port_file_arg
          $ batch_arg $ max_requests_arg $ no_shutdown_arg)

let loadgen_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR" ~doc:"Daemon address.")
  in
  let port_arg =
    Arg.(value & opt int 8090
         & info [ "port" ] ~docv:"PORT" ~doc:"Daemon port (default 8090).")
  in
  let port_file_arg =
    Arg.(value & opt (some string) None
         & info [ "port-file" ] ~docv:"FILE"
             ~doc:"Read the port from $(docv) (written by $(b,bidir \
                   serve --port-file)); polls until the file appears.")
  in
  let clients_arg =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N"
             ~doc:"Concurrent client domains (default 4).")
  in
  let requests_arg =
    Arg.(value & opt int 200
         & info [ "n"; "requests" ] ~docv:"N"
             ~doc:"Total requests across all clients (default 200).")
  in
  let rate_arg =
    Arg.(value & opt float 0.
         & info [ "rate" ] ~docv:"QPS"
             ~doc:"Aggregate Poisson arrival rate in requests/second; \
                   0 (default) runs a closed loop as fast as the daemon \
                   answers.")
  in
  let mix_arg =
    Arg.(value & opt string "sumrate=3,select=2,region=1"
         & info [ "mix" ] ~docv:"SPEC"
             ~doc:"Query-kind mix, e.g. sumrate=3,select=2,region=1.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Traffic seed: equal seeds replay the identical \
                   request stream (default 1).")
  in
  let out_arg =
    Arg.(value & opt string "BENCH_serve.json"
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the bidir-bench-serve/1 report to $(docv) \
                   (default BENCH_serve.json).")
  in
  let dump_arg =
    Arg.(value & opt (some string) None
         & info [ "dump" ] ~docv:"FILE"
             ~doc:"Dump every (query key, response body) pair as JSONL \
                   in client-major order — byte-stable for a given \
                   seed, so CI can diff runs against daemons at \
                   different $(b,--domains).")
  in
  let shutdown_arg =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"POST /shutdown to the daemon when done.")
  in
  let connect_timeout_arg =
    Arg.(value & opt float 10.
         & info [ "connect-timeout" ] ~docv:"SECONDS"
             ~doc:"How long to retry the first connect while the \
                   daemon starts (default 10).")
  in
  let read_port_file path timeout =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      let port =
        match open_in path with
        | exception Sys_error _ -> None
        | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match input_line ic with
              | line -> int_of_string_opt (String.trim line)
              | exception End_of_file -> None)
      in
      match port with
      | Some p -> p
      | None ->
        if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.05;
          go ()
        end
        else begin
          Printf.eprintf "loadgen: no port in %s after %.0fs\n" path timeout;
          exit 2
        end
    in
    go ()
  in
  let run host port port_file clients requests rate mix seed out dump
      shutdown connect_timeout =
    let mix =
      match Serve.Scenarios.mix_of_string mix with
      | Ok m -> m
      | Error e ->
        Printf.eprintf "--mix: %s\n" e;
        exit 2
    in
    let port =
      match port_file with
      | Some path -> read_port_file path connect_timeout
      | None -> port
    in
    let cfg =
      { Serve.Loadgen.host; port; clients; requests; rate; mix; seed;
        connect_timeout; dump; shutdown }
    in
    let r = Serve.Loadgen.run cfg in
    write_file out
      (Telemetry.Json.to_string_pretty (Serve.Loadgen.result_to_json cfg r)
       ^ "\n");
    Printf.printf
      "loadgen: %d ok, %d failed — %.1f req/s, p50 %.2f ms, p99 %.2f ms\n"
      r.Serve.Loadgen.ok r.Serve.Loadgen.failed r.Serve.Loadgen.qps
      (1e3 *. r.Serve.Loadgen.p50)
      (1e3 *. r.Serve.Loadgen.p99);
    Printf.printf "loadgen: wrote %s\n" out;
    if r.Serve.Loadgen.failed > 0 then exit 1
  in
  let doc = "Replay deterministic synthetic traffic against bidir serve." in
  let man =
    [ `S Manpage.s_description;
      `P "Spawns $(b,--clients) keep-alive HTTP clients that replay a \
          seeded query stream drawn from $(b,--mix) (alternating GET \
          and POST framing), measures client-observed latency, fetches \
          the daemon's serve.* counters from /metrics, and writes \
          queries/sec plus p50/p90/p99 to $(b,--out).";
      `P "Exits 1 when any request failed, so CI smoke runs assert \
          zero failures by exit code.";
    ]
  in
  Cmd.v (Cmd.info "loadgen" ~doc ~man)
    Term.(const run $ host_arg $ port_arg $ port_file_arg $ clients_arg
          $ requests_arg $ rate_arg $ mix_arg $ seed_arg $ out_arg $ dump_arg
          $ shutdown_arg $ connect_timeout_arg)

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

let top_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"Live telemetry file written by a run with \
                   $(b,--live) $(docv).")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render a single frame from the file's current \
                   contents and exit (deterministic: frames depend only \
                   on the file, never on the wall clock).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the frame as JSON instead of text (with \
                   $(b,--once): a single machine-readable state dump).")
  in
  let refresh_arg =
    Arg.(value & opt float 1.0
         & info [ "refresh" ] ~docv:"SECONDS"
             ~doc:"Polling interval in follow mode (default 1.0).")
  in
  let render st json =
    if json then
      Telemetry.Json.to_string_pretty (Telemetry.Live.to_json st) ^ "\n"
    else Telemetry.Live.render st
  in
  let read_once path json =
    match open_in_bin path with
    | exception Sys_error msg ->
      Printf.eprintf "top: %s\n" msg;
      exit 2
    | ic ->
      let st = Telemetry.Live.create () in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            while true do
              Telemetry.Live.feed_line st (input_line ic)
            done
          with End_of_file -> ());
      if Telemetry.Live.records st = 0 then begin
        Printf.eprintf "top: %s contains no bidir-live records\n" path;
        exit 2
      end;
      print_string (render st json)
  in
  (* Follow mode: poll the file by byte offset, feeding whole appended
     lines into the reader state. The file is append-only, so a plain
     offset tail is exact; a partial trailing line is buffered until its
     newline arrives. *)
  let follow path json refresh =
    let st = Telemetry.Live.create () in
    let offset = ref 0 and partial = Buffer.create 256 in
    let missing_notice = ref false in
    let poll () =
      match open_in_bin path with
      | exception Sys_error _ ->
        if not !missing_notice then begin
          missing_notice := true;
          Printf.printf "top: waiting for %s …\n%!" path
        end
      | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let len = in_channel_length ic in
            if len > !offset then begin
              seek_in ic !offset;
              let chunk = really_input_string ic (len - !offset) in
              offset := len;
              String.iter
                (fun c ->
                  if c = '\n' then begin
                    Telemetry.Live.feed_line st (Buffer.contents partial);
                    Buffer.clear partial
                  end
                  else Buffer.add_char partial c)
                chunk
            end);
        print_string "\027[H\027[2J";
        print_string (render st json);
        flush stdout
    in
    poll ();
    while not (Telemetry.Live.finished st) do
      Unix.sleepf refresh;
      poll ()
    done
  in
  let run file once json refresh =
    if refresh <= 0. then begin
      Printf.eprintf "--refresh must be > 0\n";
      exit 2
    end;
    if once then read_once file json else follow file json refresh
  in
  let doc = "Tail a live telemetry file and render a refreshing dashboard." in
  let man =
    [ `S Manpage.s_description;
      `P "Reads the bidir-live/2 JSONL stream that a concurrent run \
          ($(b,bidir campaign --live), $(b,bidir figures all --live), \
          $(b,bidir network --live), $(b,bidir serve --live)) appends \
          to, and renders progress, throughput, confidence-interval \
          width, ETA, latency percentiles and pool utilization, \
          refreshing every $(b,--refresh) seconds until the writer's \
          final record arrives.";
      `P "$(b,--once) renders exactly one frame from the file's current \
          contents and exits — the frame is a pure function of the file \
          bytes, so it is usable (and diffable) in CI.";
    ]
  in
  Cmd.v (Cmd.info "top" ~doc ~man)
    Term.(const run $ file_arg $ once_arg $ json_arg $ refresh_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc =
    "performance bounds for bidirectional coded cooperation protocols \
     (Kim, Mitran, Tarokh)"
  in
  let info = Cmd.info "bidir" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ figures_cmd; sumrate_cmd; region_cmd; simulate_cmd; sweep_cmd;
      select_cmd; arq_cmd; profile_cmd; campaign_cmd; network_cmd; serve_cmd;
      loadgen_cmd; top_cmd; check_cmd ]

let () =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  exit (Cmd.eval main_cmd)
