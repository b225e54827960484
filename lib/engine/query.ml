exception Error of string

type backend = Direct_backend | Sql_backend_choice | Auto_backend

let classify = Htl.Classify.classify

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* [Classify.check] rejects general formulas with a reason, so the class
   arms below only ever see the four supported classes — but a [General]
   arm must still answer in kind, not [assert false]: [classify] and
   [check] are separate functions, and a drift between them (or a caller
   reaching an arm through a future refactor) should surface as a
   catchable [Error] naming the formula, not a crash. *)
let general_error f =
  fail
    "general formulas have no similarity-retrieval algorithm (§3 covers \
     up to extended conjunctive): %s"
    (Htl.Pretty.to_string f)

let backend_name = function
  | Direct_backend -> "direct"
  | Sql_backend_choice -> "sql"
  | Auto_backend -> "auto"

let backend_of_name = function
  | "direct" -> Ok Direct_backend
  | "sql" -> Ok Sql_backend_choice
  | "auto" -> Ok Auto_backend
  | other ->
      Error
        (Printf.sprintf "unknown backend %S (use direct, sql or auto)" other)

(* Plan the query just before dispatch: once per query (the plan rides
   the derived context), skipped entirely when planning is off or the
   caller attached a plan already (the envelope plans shard 0; every
   other shard plans against its own registry and extents). *)
let ensure_plan (ctx : Context.t) f =
  if (not ctx.planner) || Option.is_some ctx.plan then ctx
  else
    let plan =
      Planner.build ?stats:ctx.stats ?index:(Context.index ctx)
        ~tables:ctx.tables ~taxonomy:ctx.picture_config.taxonomy
        ~prune:ctx.picture_config.prune
        ~segments:(Context.segment_count ctx)
        ~level:ctx.level f
    in
    Context.with_plan ctx plan

(* [Auto_backend] resolution: the plan's backend choice (observed
   latency EWMAs when both backends have run this fingerprint, static
   cost estimates otherwise); direct when planning is off or the SQL
   translation does not implement the context's conjunction mode. *)
let resolve_backend ~backend (ctx : Context.t) f =
  match backend with
  | (Direct_backend | Sql_backend_choice) as b -> b
  | Auto_backend -> (
      match ctx.plan with
      | None -> Direct_backend
      | Some _ when not (Sql_backend.supports ctx) -> Direct_backend
      | Some plan -> (
          let choice =
            Planner.choose_backend ?stats:ctx.stats
              ~fingerprint:(Htl.Hcons.intern_id f) plan
          in
          match choice.Planner.picked with
          | `Direct -> Direct_backend
          | `Sql -> Sql_backend_choice))

(* [eval] and its arguments are passed apart, so the served direct
   path allocates no closure *)
let unsupported_as_error eval ctx f =
  try eval ctx f with
  | Sql_backend.Unsupported msg
  | Atomic.Unsupported msg
  | Direct.Unsupported msg ->
      fail "%s" msg

(* The SQL backend's entry for a class: the paper's §4 translation for
   type (1), the table bookkeeping around SQL list merges otherwise. *)
let run_sql t ctx cls f =
  unsupported_as_error
    (fun ctx f ->
      match cls with
      | Htl.Classify.Type1 -> Sql_backend.run t ctx f
      | Htl.Classify.Type2 | Htl.Classify.Conjunctive
      | Htl.Classify.Extended_conjunctive ->
          Sql_backend.run_conjunctive t ctx f
      | Htl.Classify.General -> general_error f)
    ctx f

(* Every supported class, type (1) included, evaluates directly through
   the table algorithms. *)
let dispatch ~backend ctx cls f =
  let ctx = ensure_plan ctx f in
  match (resolve_backend ~backend ctx f, cls) with
  | Auto_backend, _ -> fail "internal error: unresolved auto backend"
  | _, Htl.Classify.General -> general_error f
  | Sql_backend_choice, _ -> run_sql (Sql_backend.create ctx) ctx cls f
  | Direct_backend, _ -> unsupported_as_error Direct.eval_closed ctx f

(* The per-query envelope (DESIGN.md §2.18), one for every deployment:
   a bare context runs through it with one shard's worth of [eval], the
   sharded coordinator with a scatter–gather.  It plans the query on
   [ctx] and resolves [Auto_backend] once, so every shard runs — and the
   stats, slow log and span all record — the concrete backend.  [eval]
   gets the planned context, the class and that backend, and answers
   with the result and its per-shard latencies.

   Observed (a tracer, metrics, a slow-query log or stats attached), the
   evaluation sits under a ["query.run"] span whose GC delta rides as
   attributes and feeds the ["query.allocated_words"] histogram.  With
   metrics or a slow log attached, the query counts its work (cache
   probes, segments scanned, index builds) in a registry of its own,
   which [eval] must hand every shard: the slow-log record reads this
   query's counts from it, whatever runs alongside, and its counters are
   added to the shared registry, under one lock, when the query ends. *)
let observed ~backend (ctx : Context.t) f eval =
  let t_start = Obs.Clock.now () in
  let shared = ctx.metrics in
  let own =
    match (shared, ctx.querylog) with
    | None, None -> None
    | _ -> Some (Obs.Metrics.create ())
  in
  let ctx = ensure_plan { ctx with metrics = own } f in
  let backend = resolve_backend ~backend ctx f in
  Option.iter (fun m -> Obs.Metrics.incr m "query.count") shared;
  let gc_before = Obs.Resource.sample () in
  let gc = ref Obs.Resource.zero in
  let cls = ref None in
  let shards = ref [] in
  let work () =
    match Htl.Classify.check f with
    | Error reason -> fail "unsupported formula: %s" reason
    | Ok c ->
        cls := Some c;
        Context.with_span ctx "query.run"
          ~attrs:(fun () ->
            [
              ("backend", backend_name backend);
              ("class", Htl.Classify.cls_to_string c);
              ("formula", string_of_int (Htl.Hcons.intern_id f));
            ])
          (fun () ->
            let account () =
              gc :=
                Obs.Resource.delta ~before:gc_before
                  ~after:(Obs.Resource.sample ());
              List.iter
                (fun (k, v) -> Context.add_attr ctx k (fun () -> v))
                (Obs.Resource.to_attrs !gc)
            in
            match eval ctx c backend with
            | r, lats ->
                shards := lats;
                account ();
                r
            | exception e ->
                account ();
                raise e)
  in
  let finish ~error =
    let latency = Obs.Clock.now () -. t_start in
    Option.iter
      (fun m ->
        Option.iter (Obs.Metrics.merge ~into:m) own;
        if Option.is_some error then Obs.Metrics.incr m "query.errors";
        Obs.Metrics.observe m "query.latency_s" latency;
        Obs.Metrics.observe m "query.allocated_words"
          (Obs.Resource.allocated_words !gc))
      shared;
    Option.iter
      (fun st ->
        Obs.Stats.record_query st
          ~fingerprint:(Htl.Hcons.intern_id f)
          ~formula:(fun () -> Htl.Pretty.to_string f)
          ~backend:(backend_name backend) ~latency_s:latency
          ~error:(Option.is_some error))
      ctx.stats;
    match ctx.querylog with
    | Some ql when Obs.Querylog.should_log ql ~latency_s:latency ->
        let counts = Option.fold ~none:[] ~some:Obs.Metrics.counters own in
        let count name = Option.value ~default:0 (List.assoc_opt name counts) in
        Obs.Querylog.record ql
          {
            Obs.Querylog.time_s = Obs.Clock.wall t_start;
            formula_id = Htl.Hcons.intern_id f;
            formula = Htl.Pretty.to_string f;
            backend = backend_name backend;
            cls =
              (match !cls with
              | Some c -> Htl.Classify.cls_to_string c
              | None -> "unsupported");
            latency_s = latency;
            cache_hits = count "cache.hits";
            cache_misses = count "cache.misses";
            segments_scanned =
              List.filter
                (fun (name, n) ->
                  n > 0
                  && String.starts_with ~prefix:"picture.segments_scanned."
                       name)
                counts;
            resources = !gc;
            shards = !shards;
            trace_id = ctx.trace_id;
            error;
          }
    | Some _ | None -> ()
  in
  match work () with
  | r ->
      finish ~error:None;
      r
  | exception e ->
      finish
        ~error:
          (Some
             (match e with
             | Error msg -> msg
             | Context.Deadline_exceeded -> "deadline exceeded"
             | e -> Printexc.to_string e));
      raise e

let envelope ~backend (ctx : Context.t) f eval =
  match (ctx.tracer, ctx.metrics, ctx.querylog, ctx.stats) with
  | None, None, None, None -> (
      (* the unobserved fast path: classify, plan, evaluate — nothing else *)
      match Htl.Classify.check f with
      | Error reason -> fail "unsupported formula: %s" reason
      | Ok cls ->
          let ctx = ensure_plan ctx f in
          fst (eval ctx cls (resolve_backend ~backend ctx f)))
  | _ -> observed ~backend ctx f eval

let run ?(backend = Direct_backend) ctx f =
  envelope ~backend ctx f (fun ctx cls backend ->
      (dispatch ~backend ctx cls f, []))

let run_observed ~backend ctx f = run ~backend ctx f

(* EXPLAIN (DESIGN.md §2.14).  The static form walks the same dispatch
   [run] would take and renders the evaluation tree; [~analyze:true]
   actually runs the query under a private tracer and folds the spans'
   timings and attributes back onto the tree.  The context's own tracer
   is replaced, not nested, so an explain never pollutes a caller's
   trace; its cache and metrics are used as-is — a warm cache legitimately
   shows nodes as cached. *)
let explain ?(backend = Direct_backend) ?(analyze = false) ctx f =
  match Htl.Classify.check f with
  | Error reason -> fail "unsupported formula: %s" reason
  | Ok cls ->
      let ctx = ensure_plan ctx f in
      let requested = backend in
      let backend = resolve_backend ~backend ctx f in
      (* with [Auto_backend] the report says which backend the planner
         picked and on what grounds (estimated cost of each, or the
         observed latency EWMAs once both have run) *)
      let backend_reason =
        match (requested, ctx.Context.plan) with
        | Auto_backend, Some _ when not (Sql_backend.supports ctx) ->
            Some
              "auto chose direct: the SQL translation implements the \
               weighted-sum conjunction only"
        | Auto_backend, Some plan ->
            let c =
              Planner.choose_backend ?stats:ctx.Context.stats
                ~fingerprint:(Htl.Hcons.intern_id f) plan
            in
            Some
              (Printf.sprintf "auto chose %s: %s" (backend_name backend)
                 c.Planner.reason)
        | Auto_backend, None -> Some "auto chose direct: planning disabled"
        | (Direct_backend | Sql_backend_choice), _ -> None
      in
      (* the table-algorithm entry points (Direct.eval_closed and
         Sql_backend.run_conjunctive) strip the leading existential
         prefix by Direct.split_prefix before evaluating — the tree
         mirrors that, carrying the stripped binders as a root attribute
         so they stay visible *)
      let with_prefix vars (tree : Explain.node) =
        match vars with
        | [] -> tree
        | vars ->
            {
              tree with
              Explain.attrs =
                ("exists_prefix", String.concat ", " vars) :: tree.Explain.attrs;
            }
      in
      let tree_of ?take ctx =
        let vars, body = Direct.split_prefix f in
        with_prefix vars
          (match backend with
          | Direct_backend | Auto_backend -> Explain.direct_tree ctx ?take body
          | Sql_backend_choice -> Explain.sql_tree ctx ?take body)
      in
      let tree, sql_script, total_s, resources =
        if not analyze then (tree_of (Context.without_tracer ctx), [], None, None)
        else begin
          let tracer = Obs.Trace.create () in
          let ctx = Context.with_tracer ctx tracer in
          let t0 = Obs.Clock.now () in
          let script, gc =
            Obs.Resource.measure (fun () ->
                match backend with
                | Direct_backend | Auto_backend ->
                    ignore (dispatch ~backend ctx cls f);
                    []
                | Sql_backend_choice ->
                    let t = Sql_backend.create ctx in
                    ignore (run_sql t ctx cls f);
                    Explain.script_nodes (Sql_backend.last_script t))
          in
          let total = Obs.Clock.now () -. t0 in
          let take = Explain.span_lookup (Obs.Trace.spans tracer) in
          (tree_of ~take ctx, script, Some total, Some gc)
        end
      in
      {
        Explain.backend = backend_name backend;
        backend_reason;
        cls;
        formula = Htl.Pretty.to_string f;
        analyzed = analyze;
        tree;
        sql_script;
        total_s;
        resources;
      }

let explain_string ?backend ?analyze ctx src =
  match Htl.Parser.formula_of_string_opt src with
  | Error msg -> fail "syntax error: %s" msg
  | Ok f -> explain ?backend ?analyze ctx f

(* Batched evaluation: the queries of a batch are independent, so they
   fan out across the pool (explicit [?pool] wins over the context's);
   per-query failures become [Error] results instead of aborting the
   batch.  The same pool also serves each query's internal parallelism —
   nested submission is safe (see Parallel.Pool, caller-helps design). *)
let run_batch ?backend ?pool (ctx : Context.t) fs =
  let pool =
    match pool with Some _ as p -> p | None -> ctx.pool
  in
  let ctx =
    match pool with
    | Some p -> Context.with_pool ~par_cutoff:ctx.par_cutoff ctx p
    | None -> ctx
  in
  let one f =
    match run ?backend ctx f with
    | list -> Result.Ok list
    | exception Error msg -> Result.Error msg
  in
  match pool with
  | Some p when Parallel.Pool.domain_count p > 1 && List.length fs > 1 ->
      Parallel.Pool.parallel_map p one fs
  | Some _ | None -> List.map one fs

let run_with_fallback (ctx : Context.t) f =
  match Htl.Classify.check f with
  | Ok _ -> run ctx f
  | Error _ -> (
      if not (Htl.Ast.is_closed f) then
        fail "cannot evaluate an open formula: %s" (Htl.Pretty.to_string f);
      match ctx.store with
      | None -> fail "the exact-semantics fallback requires a video store"
      | Some store -> (
          match Htl.Exact.eval_over_level store ~level:ctx.level f with
          | bools ->
              Simlist.Sim_list.of_dense ~max:1.
                (Array.map (fun b -> if b then 1. else 0.) bools)
          | exception Invalid_argument msg -> fail "%s" msg))

let run_string ?backend ctx src =
  match Htl.Parser.formula_of_string_opt src with
  | Error msg -> fail "syntax error: %s" msg
  | Ok f -> run ?backend ctx f

let top_k ?backend ctx ~k src = Topk.top_k (run_string ?backend ctx src) ~k

let cache_stats = Context.cache_stats
let reset_cache_stats (ctx : Context.t) =
  Option.iter Cache.reset_stats ctx.cache
