(** The trace sink: render collected span events as Chrome trace-event
    JSON ("X" complete events, microsecond timestamps) — load the file
    in Perfetto (https://ui.perfetto.dev) or chrome://tracing. *)

val chrome_trace : Span.event list -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}]. Each span maps to
    one complete ("ph":"X") event; the domain id becomes the [tid], the
    logical parent span (which may live on another domain) is carried in
    [args.parent]. *)

val chrome_trace_string : Span.event list -> string
