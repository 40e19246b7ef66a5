let event_args (e : Span.event) =
  (if e.Span.parent = "" then []
   else [ ("parent", Json.String e.Span.parent) ])
  @ e.Span.args

let event_json (e : Span.event) =
  let base =
    [ ("name", Json.String e.Span.name);
      ("cat", Json.String e.Span.cat);
      ("ph", Json.String "X");
      ("ts", Json.Float (e.Span.ts *. 1e6));
      ("dur", Json.Float (e.Span.dur *. 1e6));
      ("pid", Json.Int 1);
      ("tid", Json.Int e.Span.tid);
    ]
  in
  match event_args e with
  | [] -> Json.Obj base
  | args -> Json.Obj (base @ [ ("args", Json.Obj args) ])

let chrome_trace events =
  Json.Obj
    [ ("traceEvents", Json.List (List.map event_json events));
      ("displayTimeUnit", Json.String "ms");
    ]

let chrome_trace_string events = Json.to_string_pretty (chrome_trace events)
