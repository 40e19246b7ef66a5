(* The byte-identity contract of `bidir figures all`: the 11 artifacts,
   rendered and separated exactly as the CLI prints them, must equal
   the committed golden text byte for byte. *)

let artifacts () =
  let open Bidir in
  let fig f = Report.render_figure f and tab t = Report.render_table t in
  [ fig (Figures.fig3 ());
    fig (Figures.fig3_snr ());
    fig (Figures.fig4 ~power_db:0. ());
    fig (Figures.fig4 ~power_db:10. ());
    tab (Figures.gap_table ());
    tab (Figures.crossover_table ());
    tab (Figures.hbc_witness_table ());
    tab (Figures.coding_gain_table ());
    tab (Figures.discrete_table ());
    tab (Ergodic.ergodic_table ~blocks:400 ());
    Report.protocol_map ();
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

let suites =
  [ ( "golden",
      [ Alcotest.test_case "figures all byte-identical" `Quick
          test_figures_all_golden;
      ] );
  ]
