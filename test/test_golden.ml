(* The byte-identity contract of `bidir figures all`: the 11 artifacts,
   rendered and separated exactly as the CLI prints them, must equal
   the committed golden text byte for byte. *)

(* Evaluated in the CLI's order, first to last: warm-started LPs carry
   their basis from one artifact to the next, so the order fixes the
   pass's pivot history (a list literal would evaluate right to left). *)
let artifacts () =
  let open Bidir in
  let fig f () = Report.render_figure (f ())
  and tab t () = Report.render_table (t ()) in
  List.map
    (fun render -> render ())
    [ fig Figures.fig3;
      fig Figures.fig3_snr;
      fig (Figures.fig4 ~power_db:0.);
      fig (Figures.fig4 ~power_db:10.);
      tab Figures.gap_table;
      tab Figures.crossover_table;
      tab Figures.hbc_witness_table;
      tab Figures.coding_gain_table;
      tab Figures.discrete_table;
      tab (Ergodic.ergodic_table ~blocks:400);
      Report.protocol_map;
    ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* 1-based number and text of the first line where [a] and [b] differ *)
let first_difference a b =
  let rec go n = function
    | x :: xs, y :: ys ->
      if String.equal x y then go (n + 1) (xs, ys) else (n, x, y)
    | x :: _, [] -> (n, x, "<end of output>")
    | [], y :: _ -> (n, "<end of golden>", y)
    | [], [] -> (n, "", "")
  in
  go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

let test_figures_all_golden () =
  Engine.Memo.clear_all ();
  let golden = read_file "figures_all.golden" in
  let got = String.concat "" (List.map (fun s -> s ^ "\n") (artifacts ())) in
  if not (String.equal golden got) then begin
    let line, want, have = first_difference golden got in
    Alcotest.failf
      "figures all differs from figures_all.golden (%d vs %d bytes) at line \
       %d:\n  golden: %S\n  output: %S"
      (String.length golden) (String.length got) line want have
  end

(* The LP history of one cold `figures all` pass at one domain: how
   many LPs were solved, with how many pivots and warm starts, how many
   ended on a factored carried basis without building a tableau, how
   much kernel work those took, and what the two LP-answer memo tables
   returned. A cache change that re-solves or skips an LP moves these
   counts even when every output byte stays the same, and a change to
   the basis history moves the row-op and refactorisation counts even
   when the pivot totals happen to stay put. The pins also fix the LP
   arithmetic bit for bit: the crossover table's [Root.brent] stops on
   an exact zero of a sum-rate difference, so a numerically equivalent
   kernel change (another pivot rule in the basis factorisation, say)
   moves the last bits of a rate, the root finder's steps, and with
   them the solve and memo counts. The memo split: every
   scenario sum-rate LP is stored once, in [optimize.sum_rate] (keyed
   on the coefficients its template reads); the ergodic table's 6 000
   fading samples are solved from their templates and stored nowhere;
   [rate_region.weighted] holds only the region frontier searches and
   other symbolic queries. *)
let lp_history =
  [ ("linprog.solves", 8_919);
    ("linprog.pivots", 5_965);
    ("linprog.warm_solves", 7_956);
    ("linprog.kernel_row_ops", 439_348);
    ("linprog.refactor_eliminations", 2_431);
    ("linprog.factored_solves", 7_446);
    ("memo.optimize.sum_rate.hits", 1_405);
    ("memo.optimize.sum_rate.misses", 2_764);
    ("memo.rate_region.weighted.hits", 32);
    ("memo.rate_region.weighted.misses", 125);
  ]

let test_lp_history_pinned () =
  let counters =
    List.map (fun (name, _) -> Telemetry.Metrics.counter name) lp_history
  in
  let before = List.map Telemetry.Metrics.value counters in
  Engine.Pool.set_default_domains 1;
  Engine.Memo.clear_all ();
  ignore (artifacts () : string list);
  List.iteri
    (fun i (name, want) ->
      Alcotest.(check int) name want
        (Telemetry.Metrics.value (List.nth counters i) - List.nth before i))
    lp_history

let suites =
  [ ( "golden",
      [ Alcotest.test_case "figures all byte-identical" `Quick
          test_figures_all_golden;
        Alcotest.test_case "cold pass LP history" `Quick
          test_lp_history_pinned;
      ] );
  ]
