(* Where the level's proper-sequence partition comes from.  [Fixed] is a
   snapshot the caller computed (level descents, explicit with_level);
   [Tracked] re-derives from the store whenever the version stamp moved,
   so a long-lived context (the server's warm context) sees appended
   segments without being rebuilt.  The cell holds (version, extents);
   racing refreshes compute the same value, so a plain Atomic suffices. *)
type extent_source =
  | Fixed of Simlist.Extent.t
  | Tracked of (int * Simlist.Extent.t) Stdlib.Atomic.t

type t = {
  store : Video_model.Store.t option;
  picture_config : Picture.Retrieval.config;
  tables : (string * Simlist.Sim_table.t) list;
  threshold : float;
  conj_mode : Simlist.Sim_list.conj_mode;
  level : int;
  extent_source : extent_source;
  cache : Cache.t option;
  pool : Parallel.Pool.t option;
  par_cutoff : int;
  tracer : Obs.Trace.t option;
  metrics : Obs.Metrics.t option;
  querylog : Obs.Querylog.t option;
  stats : Obs.Stats.t option;
  trace_id : string option;
  registry : Picture.Index.Registry.t;
  planner : bool;
  plan : Planner.t option;
  domains : (string * Picture.Retrieval.domain) list;
}

let default_par_cutoff = 4096

(* A query that never touches the cache records neither series; a scrape
   that has seen only hits would miss the miss counter entirely.  Both
   series exist from the moment a registry attaches, so ratios are
   always computable from one exposition. *)
let preregister m =
  Obs.Metrics.incr m ~by:0 "cache.hits";
  Obs.Metrics.incr m ~by:0 "cache.misses";
  Obs.Metrics.incr m ~by:0 "cache.survivals";
  Obs.Metrics.incr m ~by:0 "cache.stale_drops"

let of_store ?(config = Picture.Retrieval.default_config) ?(threshold = 0.5)
    ?(conj_mode = Simlist.Sim_list.Weighted_sum) ?(tables = []) ?level ?cache
    ?pool ?(par_cutoff = default_par_cutoff) ?tracer ?metrics ?querylog ?stats
    ?(planner = true) store =
  Option.iter preregister metrics;
  let level =
    match level with Some l -> l | None -> Video_model.Store.levels store
  in
  {
    store = Some store;
    picture_config = config;
    tables;
    threshold;
    conj_mode;
    level;
    extent_source =
      Tracked
        (Stdlib.Atomic.make
           ( Video_model.Store.version store,
             Video_model.Store.extents_at store ~level ));
    cache = Some (match cache with Some c -> c | None -> Cache.create ());
    pool;
    par_cutoff;
    tracer;
    metrics;
    querylog;
    stats;
    trace_id = None;
    registry = Picture.Index.Registry.create ();
    planner;
    plan = None;
    domains = [];
  }

let of_tables ?(threshold = 0.5) ?(conj_mode = Simlist.Sim_list.Weighted_sum)
    ~n ?extents ?cache ?pool ?(par_cutoff = default_par_cutoff) ?tracer ?metrics
    ?querylog ?stats ?(planner = true) tables =
  Option.iter preregister metrics;
  let extents =
    match extents with Some e -> e | None -> Simlist.Extent.single n
  in
  {
    store = None;
    picture_config = Picture.Retrieval.default_config;
    tables;
    threshold;
    conj_mode;
    level = 1;
    extent_source = Fixed extents;
    cache = Some (match cache with Some c -> c | None -> Cache.create ());
    pool;
    par_cutoff;
    tracer;
    metrics;
    querylog;
    stats;
    trace_id = None;
    registry = Picture.Index.Registry.create ();
    planner;
    plan = None;
    domains = [];
  }

(* the old level's estimates do not describe the new level — replan;
   nor do a freeze's values at the old level bound the new level's *)
let with_level t ~level ~extents =
  { t with level; extent_source = Fixed extents; plan = None; domains = [] }

let with_domain t ~var domain =
  { t with domains = (var, domain) :: List.remove_assoc var t.domains }

let shadow_obj_var t x =
  match t.domains with
  | [] -> t
  | domains ->
      {
        t with
        domains =
          List.filter
            (fun (_, (d : Picture.Retrieval.domain)) -> d.obj <> Some x)
            domains;
      }

let with_registry t registry = { t with registry }

let store_version t =
  match t.store with Some s -> Video_model.Store.version s | None -> 0

let extents t =
  match t.extent_source with
  | Fixed e -> e
  | Tracked cell -> (
      let v = store_version t in
      let cv, e = Stdlib.Atomic.get cell in
      if cv = v then e
      else
        match t.store with
        | None -> e
        | Some s ->
            let e = Video_model.Store.extents_at s ~level:t.level in
            Stdlib.Atomic.set cell (v, e);
            e)

let segment_count t = Simlist.Extent.total (extents t)

let with_pool ?(par_cutoff = default_par_cutoff) t pool =
  { t with pool = Some pool; par_cutoff }

let without_pool t = { t with pool = None }
let with_par_cutoff t par_cutoff = { t with par_cutoff }

(* The sequential-cutoff gate every fan-out site goes through: the pool,
   but only when the work spans at least [par_cutoff] units and the pool
   actually has more than one domain. *)
let pool_for t ~n =
  match t.pool with
  | Some p when n >= t.par_cutoff && Parallel.Pool.domain_count p > 1 ->
      Some p
  | Some _ | None -> None

let cache t = t.cache
let with_cache t cache = { t with cache = Some cache }
let with_fresh_cache t = { t with cache = Some (Cache.create ()) }
let without_cache t = { t with cache = None }

(* Derived contexts share the registry (it is part of the record), so
   with_level / run_batch / fresh-cache variants all reuse the same
   finalized indexes; the version stamp inside [Registry.get] handles
   store mutation. *)
let index t =
  match t.store with
  | None -> None
  | Some s ->
      Some
        (Picture.Index.Registry.get t.registry ?metrics:t.metrics s
           ~level:t.level)

(* A subformula's table depends on the domains of its free attribute
   variables (the region rows their freezes let it build), so those are
   part of its key; outside every freeze there are none to look up. *)
let cache_key t f =
  let domains =
    match t.domains with
    | [] -> []
    | ds ->
        List.filter_map
          (fun y -> Option.map (fun d -> (y, d)) (List.assoc_opt y ds))
          (Htl.Ast.free_attr_vars f)
  in
  Cache.key ~formula:(Htl.Hcons.intern_id f) ~level:t.level
    ~extents:(extents t) ~domains

(* Extent-scoped validity of a cached entry computed at [stamp], probed
   at the current version: replay the store's change log and keep the
   entry iff no change can reach what the evaluation read.  An
   evaluation at level [l] reads level-[l] meta-data (atoms, the freeze
   value table, the finalized index) and — only under a level operator,
   which must descend — deeper levels and the children spans between
   them.  So:

   - an edit at a shallower level never invalidates;
   - an edit at the entry's own level always invalidates (the key's
     extent partition tiles the whole level, so the edit overlaps);
   - an edit at a deeper level invalidates only formulas with level
     operators;
   - an append leaves every existing id's meta-data untouched; it
     invalidates only (a) formulas with level operators (descendant
     spans grow) or (b) entries at a level that itself gained segments
     (defensive: such entries are unreachable anyway, because the
     caller's freshly derived partition no longer matches the key).

   The log is bounded: past its horizon ([changes_since] = None) we
   assume everything changed. *)
let entry_valid t f ~stamp =
  match t.store with
  | None -> true (* precomputed tables are immutable *)
  | Some s -> (
      match Video_model.Store.changes_since s ~since:stamp with
      | None -> false
      | Some changes ->
          let descends = Htl.Ast.has_level_ops f in
          List.for_all
            (fun (c : Video_model.Store.change) ->
              match c with
              | Edited { level = lm; _ } ->
                  lm < t.level || (lm > t.level && not descends)
              | Appended { counts } ->
                  counts.(t.level - 1) = 0 && not descends)
            changes)

(* --- observability ------------------------------------------------------ *)

(* --- planning ----------------------------------------------------------- *)

let with_plan t plan = { t with plan = Some plan }
let without_plan t = { t with plan = None }
let with_planner t = { t with planner = true }
let without_planner t = { t with planner = false; plan = None }

let with_tracer t tracer = { t with tracer = Some tracer }
let without_tracer t = { t with tracer = None }

let with_metrics t metrics =
  preregister metrics;
  { t with metrics = Some metrics }

let without_metrics t = { t with metrics = None }
let with_querylog t querylog = { t with querylog = Some querylog }
let without_querylog t = { t with querylog = None }
let with_stats t stats = { t with stats = Some stats }
let without_stats t = { t with stats = None }
let with_trace_id t trace_id = { t with trace_id = Some trace_id }

(* The nil-tracer zero-cost path: without a tracer every instrumentation
   site is this single match falling straight through to the work, and
   [attrs] (a thunk) is never forced.  Same shape for metrics. *)
let with_span t ?attrs name f =
  match t.tracer with
  | None -> f ()
  | Some tr ->
      let attrs = match attrs with None -> [] | Some mk -> mk () in
      Obs.Trace.with_span tr ~attrs name f

let add_attr t key value =
  match t.tracer with
  | None -> ()
  | Some tr -> Obs.Trace.add_attr tr key (value ())

let metric_incr t ?by name =
  match t.metrics with None -> () | Some m -> Obs.Metrics.incr m ?by name

let metric_observe t name v =
  match t.metrics with None -> () | Some m -> Obs.Metrics.observe m name v

(* --- result caching ------------------------------------------------------ *)

type stamp = (Cache.key * int) option

(* The version is read before the extents: an append landing between the
   two reads files the entry under the older version, so the next probe
   replays the append (and drops what it invalidates) instead of hitting
   a result computed without it. *)
let cache_stamp t f =
  match t.cache with
  | None -> None
  | Some _ ->
      let version = store_version t in
      Some (cache_key t f, version)

let cache_find t f stamp =
  match (t.cache, stamp) with
  | None, _ | _, None -> None
  | Some c, Some (key, version) -> (
      let outcome = Cache.find c key ~version ~valid:(entry_valid t f) in
      let note names =
        match t.metrics with
        | None -> ()
        | Some m -> List.iter (Obs.Metrics.incr m) names
      in
      match outcome with
      | Cache.Hit table ->
          note [ "cache.hits" ];
          Some table
      | Cache.Survived table ->
          note [ "cache.hits"; "cache.survivals" ];
          Some table
      | Cache.Stale ->
          note [ "cache.misses"; "cache.stale_drops" ];
          None
      | Cache.Absent ->
          note [ "cache.misses" ];
          None)

let cache_add t stamp table =
  match (t.cache, stamp) with
  | Some c, Some (key, version) -> Cache.add c key ~version table
  | None, _ | _, None -> ()

let cache_stats t = Option.map Cache.stats t.cache
