(* Machine-readable telemetry export.  Three formats, three consumers:

   - Prometheus text exposition v0.0.4 of a Metrics snapshot, for a
     scrape endpoint or the node_exporter textfile collector;
   - JSONL span dumps, one object per line, for grep/jq pipelines and
     log shippers;
   - Chrome trace-event JSON of the span tree, loadable in Perfetto
     (ui.perfetto.dev) or chrome://tracing.

   Everything renders from the public snapshots (Metrics.snapshot,
   Trace.spans), so exporting never holds a registry or recorder lock
   beyond the snapshot itself. *)

(* --- Prometheus ----------------------------------------------------------- *)

(* Metric names here are dot-separated (query.latency_s,
   picture.segments_scanned.l2); Prometheus names must match
   [a-zA-Z_:][a-zA-Z0-9_:]*, so every other byte maps to '_'. *)
let prometheus_name name =
  String.init (String.length name) (fun i ->
      match name.[i] with
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c
      | _ -> '_')

let prometheus_float f =
  if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_nan f then "NaN"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let prometheus metrics =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let pname = prometheus_name name in
      match v with
      | Metrics.Counter n ->
          Printf.bprintf b "# TYPE %s counter\n%s %d\n" pname pname n
      | Metrics.Gauge g ->
          Printf.bprintf b "# TYPE %s gauge\n%s %s\n" pname pname
            (prometheus_float g)
      | Metrics.Histogram h ->
          Printf.bprintf b "# TYPE %s histogram\n" pname;
          let cumulative = ref 0 in
          Array.iter
            (fun (bound, count) ->
              cumulative := !cumulative + count;
              Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" pname
                (prometheus_float bound) !cumulative)
            h.Metrics.buckets;
          Printf.bprintf b "%s_sum %s\n" pname (prometheus_float h.Metrics.sum);
          Printf.bprintf b "%s_count %d\n" pname h.Metrics.count)
    (Metrics.snapshot metrics);
  Buffer.contents b

(* --- JSONL spans ----------------------------------------------------------- *)

(* Attributes keep insertion order and duplicates (add_attr can record
   the same key twice); a JSON object preserves both for a reader that
   cares, and jq's "last wins" is the right collapse for one that
   doesn't. *)
let attrs_json attrs =
  Json.Obj (List.rev_map (fun (k, v) -> (k, Json.String v)) attrs)

let span_json ?trace_id (s : Trace.span) =
  Json.Obj
    ((match trace_id with
     | Some id -> [ ("trace_id", Json.String id) ]
     | None -> [])
    @ [
        ("id", Json.Int s.Trace.id);
        ("parent", Json.Int s.Trace.parent);
        ("name", Json.String s.Trace.name);
        ("start_s", Json.Float (Clock.wall s.Trace.start_s));
        ( "stop_s",
          match Trace.duration_s s with
          | Some _ -> Json.Float (Clock.wall s.Trace.stop_s)
          | None -> Json.Null );
        ("attrs", attrs_json s.Trace.attrs);
      ])

let spans_jsonl tracer =
  let trace_id = Trace.trace_id tracer in
  String.concat ""
    (List.map
       (fun s -> Json.to_string (span_json ?trace_id s) ^ "\n")
       (Trace.spans tracer))

(* --- Chrome trace events --------------------------------------------------- *)

(* Complete ("ph":"X") events with microsecond timestamps relative to
   the earliest span, all on one pid/tid — Perfetto nests by time
   containment, which matches the recorder's stack discipline.  A span
   still open when exported gets its elapsed time so far and an
   "open":"true" arg, the same never-under-report rule as
   Trace.summarize.  The span-list entry point exists so a frozen
   Tracestore entry renders identically to a live tracer; when a trace
   id is known it lands both at the top level and in every event's
   args (Perfetto surfaces args in the span details pane). *)
let chrome_trace_json_of_spans ?trace_id spans =
  let now = Clock.now () in
  let epoch =
    List.fold_left
      (fun acc (s : Trace.span) -> Float.min acc s.Trace.start_s)
      Float.infinity spans
  in
  let id_args =
    match trace_id with
    | Some id -> [ ("trace_id", Json.String id) ]
    | None -> []
  in
  let event (s : Trace.span) =
    let dur, open_args =
      match Trace.duration_s s with
      | Some d -> (d, [])
      | None -> (now -. s.Trace.start_s, [ ("open", Json.String "true") ])
    in
    let args =
      (match attrs_json s.Trace.attrs with Json.Obj l -> l | _ -> [])
      @ [ ("span_id", Json.Int s.Trace.id); ("parent", Json.Int s.Trace.parent) ]
      @ id_args @ open_args
    in
    Json.Obj
      [
        ("name", Json.String s.Trace.name);
        ("cat", Json.String "htl");
        ("ph", Json.String "X");
        ("ts", Json.Float ((s.Trace.start_s -. epoch) *. 1e6));
        ("dur", Json.Float (dur *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj args);
      ]
  in
  Json.Obj
    ([
       ("traceEvents", Json.Array (List.map event spans));
       ("displayTimeUnit", Json.String "ms");
     ]
    @ id_args)

let chrome_trace_of_spans ?trace_id spans =
  Json.to_string (chrome_trace_json_of_spans ?trace_id spans)

let chrome_trace_json tracer =
  chrome_trace_json_of_spans
    ?trace_id:(Trace.trace_id tracer)
    (Trace.spans tracer)

let chrome_trace tracer = Json.to_string (chrome_trace_json tracer)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
