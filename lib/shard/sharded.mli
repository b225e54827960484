(** Sharded stores with scatter–gather evaluation.

    A sharded store partitions the videos of one corpus into N
    contiguous groups, each its own {!Video_model.Store.t} with a
    private {!Picture.Index.Registry} and {!Engine.Cache}.  Global
    segment ids number videos in temporal order, so a contiguous-video
    partition makes every shard own a contiguous global-id range per
    level: shard-local id + per-shard offset = global id, and proper
    sequences (per-video extents) never cross a shard boundary —
    temporal operators need no cross-shard communication.

    It is also the only deployment shape: an unsharded store (or a
    store-less table context) is a one-shard handle ({!of_context}), so
    the server and the CLI answer every query through one path and one
    query envelope ({!Engine.Query.envelope}).

    A query scatters over the shards (on the {!Parallel.Pool} when one
    is attached), evaluates each shard independently, and gathers the
    per-shard similarity lists at a coordinator.  Shifted by their
    offsets, the shard lists are already sorted and disjoint, so the
    gather only looks at the shard boundaries, where equal-valued
    entries abutting across shards coalesce
    ({!Simlist.Sim_list.concat}).  {!run} builds that merged list,
    byte-equal to the unsharded evaluation — the CLI, EXPLAIN ANALYZE
    and the differential tests use it.  {!top_k} and {!run_batch},
    which answer the server's [/query] and [/batch], never materialise
    it: the count comes from the same boundary walk and the k best ids
    from one k-bounded selection over the shard lists
    ({!Engine.Topk.merged_top_k}).

    The payoff on mutation-heavy workloads is partition-isolated
    invalidation: a store edit bumps only the owning shard's version, so
    only that shard's result cache and index registry rebuild — sibling
    shards stay warm, where an unsharded store would drop everything
    (see DESIGN.md §2.18). *)

type t

val create :
  ?shards:int ->
  ?config:Picture.Retrieval.config ->
  ?threshold:float ->
  ?conj_mode:Simlist.Sim_list.conj_mode ->
  ?level:int ->
  ?planner:bool ->
  ?pool:Parallel.Pool.t ->
  ?par_cutoff:int ->
  ?metrics:Obs.Metrics.t ->
  ?querylog:Obs.Querylog.t ->
  ?stats:Obs.Stats.t ->
  Video_model.Store.t ->
  t
(** Partition the store's videos into at most [shards] (default 1)
    contiguous groups of roughly equal leaf-segment weight.  The actual
    shard count can be lower when the store has fewer videos (a video is
    never split).  [metrics], [querylog], [stats] and [pool] are shared
    by every shard context (so per-atom selectivity accumulates across
    shards); the coordinator's envelope, on shard 0's context, records
    one slow-log entry per query with per-shard latencies and folds
    per-fingerprint stats once per query.  Other options are as
    {!Engine.Context.of_store}.
    @raise Invalid_argument when [shards < 1]. *)

val of_context : Engine.Context.t -> t
(** The one-shard handle over a context, which it wraps as is: the
    store is not copied (an append made directly to it is seen), and
    the context's cache, registry, pool and observers are the handle's.
    A store-less table context works too — one level, offset 0 — but
    {!with_level} and the mutation and ingestion calls then raise
    [Invalid_argument "... requires a store-backed dataset"]. *)

val shard_count : t -> int
val level : t -> int
val levels : t -> int
val level_index : t -> string -> int option
val segment_count : t -> int
(** Total segments at the current query level, across shards. *)

val count_at : t -> level:int -> int

val version : t -> int
(** The sum of the shard store versions (0 for a store-less handle).
    Every mutation routes to exactly one shard, so after the same
    mutations this equals the version one unsharded store would read. *)

val contexts : t -> Engine.Context.t array
(** The per-shard evaluation contexts, in partition order (tests and
    diagnostics; mutate stores through {!set_attr} &co, not directly). *)

val offsets : t -> int array
(** Global-id offset of each shard at the current level:
    global id = local id + offset. *)

val with_level : t -> level:int -> t
(** Re-aim every shard context at a level (same registries and caches).
    @raise Invalid_argument ["level N out of range 1..L"], or
    ["\"level\" requires a store-backed dataset"] on a store-less
    handle. *)

val for_request :
  ?tracer:Obs.Trace.t -> ?trace_id:string -> ?deadline:float -> t -> t
(** A request-scoped view of the same handle: every shard context emits
    into [tracer], stamps [trace_id] (per-shard ["shard.scatter"]
    spans, trace ids on the coordinator's query-log records) and
    carries [deadline] ({!Engine.Context.with_deadline}: past it,
    evaluation raises {!Engine.Context.Deadline_exceeded}), while all
    warm state — stores, caches, index registries, offsets — stays
    shared with the original.  With no argument this is the
    identity.  Concurrent requests derive independent views, so one
    request's spans never interleave with another's. *)

(** {1 Scatter–gather evaluation}

    All evaluation raises {!Engine.Query.Error} exactly as the
    unsharded {!Engine.Query} entry points do. *)

val run :
  ?backend:Engine.Query.backend -> t -> Htl.Ast.t -> Simlist.Sim_list.t
(** Evaluate on every shard, shift each shard's entries by its offset
    and coalesce at the shard boundaries — byte-equal to
    {!Engine.Query.run} over the unsharded store.  One
    {!Engine.Query.envelope} per query, on shard 0's context: it plans
    there and resolves [Auto_backend] once, and every shard runs the
    concrete backend; with a tracer attached the shard evaluations nest
    as ["shard.scatter"] spans under ["query.run"].  With metrics
    attached, counts [query.count] once (not per shard) plus
    [shard.queries]/[shard.merge_s]/[shard.imbalance]; with a querylog,
    slow queries record per-shard latencies in the [shards] field. *)

val run_string :
  ?backend:Engine.Query.backend -> t -> string -> Simlist.Sim_list.t

val top_k :
  ?backend:Engine.Query.backend ->
  t ->
  k:int ->
  Htl.Ast.t ->
  int * (int * Simlist.Sim.t) list
(** [(count, top)]: the entry count of {!run}'s merged list and its k
    best segments — equal to [(Sim_list.length l, Engine.Topk.top_k l
    ~k)] for [l = run t f] — without building the merged list.  The
    count is the sum of the shard lengths minus one per coalescing shard
    boundary, and the ids come from {!Engine.Topk.merged_top_k} over the
    shard lists: O(m log k + k) for m entries, where {!run} allocates
    the whole merged list.  Same query envelope as {!run}: metrics
    ([shard.merge_s] times this gather), slow log, stats.
    @raise Invalid_argument when [k] is negative. *)

val run_batch :
  ?backend:Engine.Query.backend ->
  t ->
  k:int ->
  Htl.Ast.t list ->
  (int * (int * Simlist.Sim.t) list, string) result list
(** {!top_k} per slot: each slot goes through the scatter–gather path
    independently; a slot that fails (on any shard) yields [Error msg]
    without poisoning sibling slots.  Slots fan out across the pool when
    one is attached. *)

val explain :
  ?backend:Engine.Query.backend -> ?analyze:bool -> t -> Htl.Ast.t -> string
(** The scatter–gather plan, the EXPLAIN of every deployment: a header,
    one row per shard (videos, segments, global-id offset), the
    coordinator merge, then the representative per-shard evaluation
    tree (shard 0, via {!Engine.Query.explain}).  With [~analyze:true]
    the query actually runs and every shard row carries the wall time
    and result entry count of an uncached evaluation of that shard —
    skewed shards are visible at a glance — the merge line times
    {!run}'s gather and the tree carries per-node timings, as
    {!Engine.Query.explain} would on shard 0 alone. *)

(** {1 Mutation routing}

    Global-id mutation API mirroring {!Video_model.Store}: the owning
    shard is located by offset, and only {e its} version bumps — sibling
    caches and registries stay warm. *)

val locate : t -> level:int -> id:int -> int * int
(** (shard ordinal, shard-local id) owning a global id.
    @raise Invalid_argument when out of range. *)

val update_meta :
  t ->
  level:int ->
  id:int ->
  f:(Metadata.Seg_meta.t -> Metadata.Seg_meta.t) ->
  unit

val set_attr :
  t -> level:int -> id:int -> name:string -> Metadata.Value.t -> unit

val add_object : t -> level:int -> id:int -> Metadata.Entity.t -> unit
val remove_object : t -> level:int -> id:int -> obj:int -> unit
val remove_attr : t -> level:int -> id:int -> name:string -> unit

(** {1 Ingestion}

    Appends route to a single shard and grow only its id space: the
    owning shard's version bumps, sibling caches and registries stay
    warm, and the global offsets of the shards after it are refreshed in
    place. *)

val video_count : t -> int
(** Total videos across shards. *)

val append_video : t -> Video_model.Video.t -> unit
(** Append a whole video to the {e last} shard (keeping the partition
    contiguous), as {!Video_model.Store.append_video}.
    @raise Invalid_argument when the video's level names disagree. *)

val append_segments : ?video:int -> t -> Metadata.Seg_meta.t list -> unit
(** Append leaf segments to a video, as
    {!Video_model.Store.append_segments}.  [video] is the global 0-based
    video index and defaults to the last video of the corpus; it must be
    the last video of its owning shard (only shard-final videos can grow
    without renumbering).
    @raise Invalid_argument otherwise, or on an empty list or
    single-level store. *)

(** {1 Snapshots} *)

val save_snapshot : t -> string -> unit
(** Persist every shard's store and its finalized indexes for {e all}
    levels (building any the registry has not seen yet) via
    {!Storage.Snapshot.save}, so a load answers queries at any level
    with zero index rebuilds. *)

val load_snapshot :
  ?config:Picture.Retrieval.config ->
  ?threshold:float ->
  ?conj_mode:Simlist.Sim_list.conj_mode ->
  ?level:int ->
  ?pool:Parallel.Pool.t ->
  ?par_cutoff:int ->
  ?metrics:Obs.Metrics.t ->
  ?querylog:Obs.Querylog.t ->
  ?stats:Obs.Stats.t ->
  string ->
  t
(** Restore the saved shard layout, preloading each shard's registry
    with the snapshot's finalized indexes — the first query after a load
    is a registry hit, not a rebuild ([picture.index.builds] stays 0).
    @raise Storage.Snapshot.Snapshot_error as {!Storage.Snapshot.load}. *)
