(** Data generators for every figure and table in the paper's evaluation
    (see DESIGN.md's per-experiment index). Each generator returns plain
    data so the CLI, the benchmark and the examples can render it
    however they like (terminal plot, CSV, markdown table). *)

type series = { label : string; points : (float * float) list }

type figure = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
}

type table = {
  table_id : string;
  table_title : string;
  headers : string list;
  rows : string list list;
}

val fig3 :
  ?power_db:float -> ?exponent:float -> ?samples:int -> unit -> figure
(** FIG3 — the paper's Fig. 3: optimal achievable sum rates of DT, MABC,
    TDBC and HBC at [power_db] (default 15 dB), [G_ab = 0] dB, with the
    relay swept along the a–b line under path-loss exponent [exponent]
    (default 3). X axis: relay position in (0, 1). Expected shape:
    HBC >= max(MABC, TDBC) everywhere with a band of strict advantage. *)

val fig3_snr : ?gains:Channel.Gains.t -> ?samples:int -> unit -> figure
(** Companion sweep: optimal sum rates versus transmit power (dB) at the
    paper's Fig. 4 gains. Shows the MABC/TDBC crossover. *)

val fig4 : power_db:float -> ?gains:Channel.Gains.t -> unit -> figure
(** FIG4A/B — the paper's Fig. 4 at the given power (0 dB for the top
    panel, 10 dB for the bottom): achievable-region boundaries of the
    four protocols plus the TDBC and MABC outer bounds. Series points are
    region boundary vertices [(Ra, Rb)]. Default gains
    [G_ab = 0, G_ar = 5, G_br = 7] dB. *)

val gap_table :
  ?powers_db:float list -> ?gains:Channel.Gains.t -> unit -> table
(** TAB-GAP: inner vs outer optimal sum rate and relative gap for TDBC
    and HBC at several powers (the paper's "bounds do not differ
    significantly" claim, Section I). *)

val crossover_table : ?gains:Channel.Gains.t -> unit -> table
(** TAB-XOVER: crossover powers between protocol pairs on [-10, 25] dB
    ("MABC dominates at low SNR, TDBC at high SNR"). *)

val hbc_witness_table :
  ?powers_db:float list -> ?gains:Channel.Gains.t -> unit -> table
(** TAB-HBC: for each power, an HBC-achievable rate pair lying outside
    both the MABC and TDBC outer bounds, with its escape margin
    (Section IV's closing observation). *)

val coding_gain_table :
  ?powers_db:float list -> ?gains:Channel.Gains.t -> unit -> table
(** Extension artifact quantifying the paper's Fig. 1 motivation: the
    naive four-phase routing baseline versus the coded protocols — how
    much does network coding plus side information buy? *)

val discrete_table : ?p_range:float list -> unit -> table
(** Extension (not in the paper): optimal sum rates of the three relay
    protocols on the all-BSC network as the link noise sweeps, evaluated
    with uniform inputs. *)

val all_figures : unit -> figure list
val all_tables : unit -> table list
