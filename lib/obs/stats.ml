(* The always-on statistics collector: what the cost-based planner
   reads.  Unlike Querylog (a bounded ring of whole records above a
   threshold) this keeps *aggregates*, updated on every request:

   - per formula fingerprint: request count, error count, an EWMA of
     latency, and a small ring of recent latencies from which quantiles
     are computed at read time — latencies of successful requests
     only;
   - per atomic formula and level: observed pruning selectivity
     (index candidates / level segments) as an EWMA plus cumulative
     sums — the index-vs-scan signal;
   - per backend: request and error counts.

   One mutex serializes updates, the Trace/Metrics argument: an update
   is a handful of field writes against a full query evaluation, so
   the lock is never meaningfully contended.  Memory is bounded by the
   number of *distinct* fingerprints/atoms seen, each entry O(window)
   floats — a served workload's fingerprint set is small (that is why
   caching works), and the window is fixed.

   The EWMA seeds at the first sample, then folds
   ewma' = alpha * x + (1 - alpha) * ewma — the scalar-fold oracle the
   qcheck property checks against.  Quantiles read the window at rank
   floor(n * p), clamped to the last sample.

   Every EWMA lives in an all-float record, which OCaml stores unboxed:
   a float field of a mixed record is a pointer, so each update would
   box a fresh float into a long-lived record and promote it. *)

type ewma = { mutable ewma : float }

type query_stat = {
  q_formula : string;
  mutable q_count : int;
  mutable q_errors : int;
  q_ewma_s : ewma;
  q_window : float array; (* ring of recent latencies *)
  mutable q_next : int;
}

type atom_stat = {
  mutable a_count : int;
  a_ewma : ewma;
  mutable a_candidates : int; (* cumulative candidates scanned *)
  mutable a_segments : int; (* cumulative level segments *)
}

type backend_stat = { mutable b_count : int; mutable b_errors : int }

(* per-(fingerprint, backend) latency EWMA: the planner's signal for
   choosing between backends on a formula it has seen before *)
type lat_stat = { mutable l_count : int; l_ewma_s : ewma }

type t = {
  mutex : Mutex.t;
  alpha : float;
  window : int;
  queries : (int, query_stat) Hashtbl.t; (* keyed by fingerprint *)
  atoms : (int * string, atom_stat) Hashtbl.t; (* keyed by (level, atom) *)
  backends : (string, backend_stat) Hashtbl.t;
  latencies : (int * string, lat_stat) Hashtbl.t; (* (fingerprint, backend) *)
}

let create ?(alpha = 0.2) ?(window = 64) () =
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg (Printf.sprintf "Obs.Stats.create: alpha %g outside (0, 1]" alpha);
  if window < 1 then
    invalid_arg (Printf.sprintf "Obs.Stats.create: window %d < 1" window);
  {
    mutex = Mutex.create ();
    alpha;
    window;
    queries = Hashtbl.create 64;
    atoms = Hashtbl.create 64;
    backends = Hashtbl.create 4;
    latencies = Hashtbl.create 64;
  }

let alpha t = t.alpha
let window t = t.window

let ewma_step ~alpha ~count ~prev x =
  if count = 0 then x else (alpha *. x) +. ((1. -. alpha) *. prev)

let fold_ewma t e ~count x =
  e.ewma <- ewma_step ~alpha:t.alpha ~count ~prev:e.ewma x

(* [formula] is a thunk so the pretty-printed text is only built the
   first time a fingerprint is seen, not on every request. *)
let record_query t ~fingerprint ~formula ~backend ~latency_s ~error =
  Mutex.protect t.mutex (fun () ->
      let q =
        match Hashtbl.find_opt t.queries fingerprint with
        | Some q -> q
        | None ->
            let q =
              {
                q_formula = formula ();
                q_count = 0;
                q_errors = 0;
                q_ewma_s = { ewma = 0. };
                q_window = Array.make t.window Float.nan;
                q_next = 0;
              }
            in
            Hashtbl.add t.queries fingerprint q;
            q
      in
      (* a failed query's latency says when it failed (at a deadline,
         say), not how fast its backend is: errors count, nothing more *)
      if not error then begin
        fold_ewma t q.q_ewma_s ~count:(q.q_count - q.q_errors) latency_s;
        q.q_window.(q.q_next) <- latency_s;
        q.q_next <- (q.q_next + 1) mod t.window
      end;
      q.q_count <- q.q_count + 1;
      if error then q.q_errors <- q.q_errors + 1;
      let b =
        match Hashtbl.find_opt t.backends backend with
        | Some b -> b
        | None ->
            let b = { b_count = 0; b_errors = 0 } in
            Hashtbl.add t.backends backend b;
            b
      in
      b.b_count <- b.b_count + 1;
      if error then b.b_errors <- b.b_errors + 1
      else
        let l =
          match Hashtbl.find_opt t.latencies (fingerprint, backend) with
          | Some l -> l
          | None ->
              let l = { l_count = 0; l_ewma_s = { ewma = 0. } } in
              Hashtbl.add t.latencies (fingerprint, backend) l;
              l
        in
        fold_ewma t l.l_ewma_s ~count:l.l_count latency_s;
        l.l_count <- l.l_count + 1)

let record_atom t ~atom ~level ~candidates ~segments =
  if segments > 0 then
    let sel = float_of_int candidates /. float_of_int segments in
    Mutex.protect t.mutex (fun () ->
        let key = (level, atom) in
        let a =
          match Hashtbl.find_opt t.atoms key with
          | Some a -> a
          | None ->
              let a =
                {
                  a_count = 0;
                  a_ewma = { ewma = 0. };
                  a_candidates = 0;
                  a_segments = 0;
                }
              in
              Hashtbl.add t.atoms key a;
              a
        in
        fold_ewma t a.a_ewma ~count:a.a_count sel;
        a.a_count <- a.a_count + 1;
        a.a_candidates <- a.a_candidates + candidates;
        a.a_segments <- a.a_segments + segments)

(* --- read side ----------------------------------------------------------- *)

type query_row = {
  fingerprint : int;
  formula : string;
  count : int;
  errors : int;
  ewma_latency_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  window_n : int;
}

type atom_row = {
  atom : string;
  level : int;
  evals : int;
  ewma_selectivity : float;
  candidates_total : int;
  segments_total : int;
}

type backend_row = { backend : string; requests : int; backend_errors : int }

(* rank floor(n * p) of a sorted copy, clamped to the last sample *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let query_row ~fingerprint (q : query_stat) =
  let samples =
    Array.of_seq
      (Seq.filter (fun x -> not (Float.is_nan x)) (Array.to_seq q.q_window))
  in
  Array.sort compare samples;
  {
    fingerprint;
    formula = q.q_formula;
    count = q.q_count;
    errors = q.q_errors;
    ewma_latency_s = q.q_ewma_s.ewma;
    p50_s = percentile samples 0.50;
    p95_s = percentile samples 0.95;
    p99_s = percentile samples 0.99;
    window_n = Array.length samples;
  }

let queries t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold
        (fun fingerprint q acc -> query_row ~fingerprint q :: acc)
        t.queries [])
  |> List.sort (fun a b ->
         compare (b.count, a.fingerprint) (a.count, b.fingerprint))

let atoms t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold
        (fun (level, atom) (a : atom_stat) acc ->
          {
            atom;
            level;
            evals = a.a_count;
            ewma_selectivity = a.a_ewma.ewma;
            candidates_total = a.a_candidates;
            segments_total = a.a_segments;
          }
          :: acc)
        t.atoms [])
  |> List.sort (fun a b ->
         compare (b.evals, a.level, a.atom) (a.evals, b.level, b.atom))

let backends t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold
        (fun backend (b : backend_stat) acc ->
          { backend; requests = b.b_count; backend_errors = b.b_errors } :: acc)
        t.backends [])
  |> List.sort (fun a b -> compare a.backend b.backend)

(* --- planner hooks ------------------------------------------------------- *)

let ewma_latency_s t ~fingerprint =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.queries fingerprint with
      | Some q when q.q_count > q.q_errors -> Some q.q_ewma_s.ewma
      | _ -> None)

let selectivity t ~level ~atom =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.atoms (level, atom) with
      | Some a when a.a_count > 0 -> Some a.a_ewma.ewma
      | _ -> None)

let backend_latency_s t ~fingerprint ~backend =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.latencies (fingerprint, backend) with
      | Some l when l.l_count > 0 -> Some l.l_ewma_s.ewma
      | _ -> None)

let error_rate t ~backend =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.backends backend with
      | Some b when b.b_count > 0 ->
          Some (float_of_int b.b_errors /. float_of_int b.b_count)
      | _ -> None)

let clear t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.reset t.queries;
      Hashtbl.reset t.atoms;
      Hashtbl.reset t.backends;
      Hashtbl.reset t.latencies)

(* --- export -------------------------------------------------------------- *)

let to_json t =
  let qrows = queries t and arows = atoms t and brows = backends t in
  Json.Obj
    [
      ("alpha", Json.Float t.alpha);
      ("window", Json.Int t.window);
      ( "queries",
        Json.Array
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("fingerprint", Json.Int r.fingerprint);
                   ("formula", Json.String r.formula);
                   ("count", Json.Int r.count);
                   ("errors", Json.Int r.errors);
                   ("ewma_latency_s", Json.Float r.ewma_latency_s);
                   ("p50_s", Json.Float r.p50_s);
                   ("p95_s", Json.Float r.p95_s);
                   ("p99_s", Json.Float r.p99_s);
                   ("window_n", Json.Int r.window_n);
                 ])
             qrows) );
      ( "atoms",
        Json.Array
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("atom", Json.String r.atom);
                   ("level", Json.Int r.level);
                   ("evals", Json.Int r.evals);
                   ("ewma_selectivity", Json.Float r.ewma_selectivity);
                   ("candidates_total", Json.Int r.candidates_total);
                   ("segments_total", Json.Int r.segments_total);
                 ])
             arows) );
      ( "backends",
        Json.Array
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("backend", Json.String r.backend);
                   ("requests", Json.Int r.requests);
                   ("errors", Json.Int r.backend_errors);
                   ( "error_rate",
                     Json.Float
                       (if r.requests = 0 then 0.
                        else
                          float_of_int r.backend_errors
                          /. float_of_int r.requests) );
                 ])
             brows) );
    ]
