module Store = Video_model.Store
module Video = Video_model.Video
module Context = Engine.Context
module Query = Engine.Query
module Cache = Engine.Cache
module Sim_list = Simlist.Sim_list

type t = {
  shards : Context.t array;
      (* in partition order; all carry the same observers and pool *)
  level : int;
  levels : int;
  offsets : int array;  (* global-id offset per shard at [level] *)
}

(* A single shard may wrap a store-less table context (the paper's
   Casablanca tables): one level, offset 0, and no store to route
   levels, mutations or appends to. *)
let store_of ?(what = "Sharded") ctx =
  match ctx.Context.store with
  | Some s -> s
  | None -> invalid_arg (what ^ " requires a store-backed dataset")

let count_of ctx ~level =
  match ctx.Context.store with
  | Some s -> Store.count_at s ~level
  | None -> Context.segment_count ctx

let offsets_of shards ~level =
  let n = Array.length shards in
  let off = Array.make n 0 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    off.(i) <- !acc;
    acc := !acc + count_of shards.(i) ~level
  done;
  off

let make ctxs =
  let shards = Array.of_list ctxs in
  if Array.length shards = 0 then invalid_arg "Sharded: no shards";
  let levels =
    match shards with
    | [| { Context.store = None; _ } |] -> 1
    | _ ->
        let levels = Store.levels (store_of shards.(0)) in
        Array.iter
          (fun c ->
            if Store.levels (store_of c) <> levels then
              invalid_arg "Sharded: shards disagree on level structure")
          shards;
        levels
  in
  let level = shards.(0).Context.level in
  { shards; level; levels; offsets = offsets_of shards ~level }

let of_context ctx = make [ ctx ]

(* Contiguous partition of the videos into at most [n] groups of roughly
   equal leaf weight: videos accumulate into the current group until the
   running total crosses the next n-quantile of the total weight.  A
   video is never split, so the group count can come out below [n] for
   small or skewed corpora. *)
let partition n videos =
  let weight v = Video.count_at v (Video.levels v) in
  let total = List.fold_left (fun acc v -> acc + weight v) 0 videos in
  let boundary i = total * i / n in
  let rec go i cum group groups = function
    | [] -> List.rev (List.rev group :: groups)
    | v :: rest ->
        let cum = cum + weight v in
        let group = v :: group in
        if cum >= boundary (i + 1) && rest <> [] then
          go (i + 1) cum [] (List.rev group :: groups) rest
        else go i cum group groups rest
  in
  match videos with
  | [] -> invalid_arg "Sharded: empty store"
  | _ -> go 0 0 [] [] videos

let create ?(shards = 1) ?config ?threshold ?conj_mode ?level ?planner ?pool
    ?par_cutoff ?metrics ?querylog ?stats store =
  if shards < 1 then
    invalid_arg (Printf.sprintf "Sharded.create: shards %d < 1" shards);
  (* partition the *current* trees: edits and appends made to the source
     store must survive re-sharding *)
  let videos = Store.current_videos store in
  let n = min shards (List.length videos) in
  let groups = partition n videos in
  let ctxs =
    List.map
      (fun group ->
        Context.of_store ?config ?threshold ?conj_mode ?level ?planner ?pool
          ?par_cutoff ?metrics ?querylog ?stats (Store.create group))
      groups
  in
  make ctxs

let shard_count t = Array.length t.shards
let level t = t.level
let levels t = t.levels
let level_index t name =
  Option.bind t.shards.(0).Context.store (fun s -> Store.level_index s name)

let contexts t = t.shards
let offsets t = t.offsets

let count_at t ~level =
  Array.fold_left (fun acc ctx -> acc + count_of ctx ~level) 0 t.shards

let segment_count t = count_at t ~level:t.level

let version t =
  Array.fold_left (fun acc ctx -> acc + Context.store_version ctx) 0 t.shards

let with_level t ~level =
  let stores = Array.map (store_of ~what:"\"level\"") t.shards in
  if level < 1 || level > t.levels then
    invalid_arg (Printf.sprintf "level %d out of range 1..%d" level t.levels);
  let shards =
    Array.mapi
      (fun i ctx ->
        Context.with_level ctx ~level
          ~extents:(Store.extents_at stores.(i) ~level))
      t.shards
  in
  { t with shards; level; offsets = offsets_of shards ~level }

(* --- per-request observability ------------------------------------------- *)

(* A request-scoped view: the same shard stores, registries and caches
   (Context.with_tracer/with_trace_id are record updates, so all warm
   state is shared), but every shard context emits into the request's
   own tracer and stamps its trace id and deadline.  The handle itself
   is immutable — concurrent requests each derive their own view and
   never see each other's spans, which is what lets the service trace
   live traffic without poisoning the shared warm context (DESIGN.md
   §2.20). *)
let for_request ?tracer ?trace_id ?deadline t =
  match (tracer, trace_id, deadline) with
  | None, None, None -> t
  | _ ->
      let derive ctx =
        let ctx =
          match trace_id with
          | Some id -> Context.with_trace_id ctx id
          | None -> ctx
        in
        let ctx =
          match deadline with
          | Some d -> Context.with_deadline ctx d
          | None -> ctx
        in
        match tracer with
        | Some tr -> Context.with_tracer ctx tr
        | None -> ctx
      in
      { t with shards = Array.map derive t.shards }

(* --- scatter–gather ------------------------------------------------------ *)

let fail fmt = Format.kasprintf (fun s -> raise (Query.Error s)) fmt
let pool t = t.shards.(0).Context.pool
let metrics t = t.shards.(0).Context.metrics

(* Scatter: evaluate the already-classified formula on every shard,
   recording per-shard wall time.  [Query.dispatch] skips the per-query
   envelope, so N shard evaluations still count as one query at the
   coordinator.  Shard 0 runs on [ctx0], the context the envelope
   already planned; every other shard gets [ctx0]'s metrics, the
   query's own registry when it is observed, so every shard's cache and
   scan counters land in the query's slow-log record.  When the shard
   contexts carry a (request) tracer, each shard's evaluation sits under
   its own "shard.scatter" span carrying the ordinal and trace id —
   under a pool the span roots at the worker domain's stack bottom,
   sequentially it nests under the caller. *)
let eval_parts ~backend t ctx0 cls f =
  let one (i, ctx) =
    Context.with_span ctx "shard.scatter"
      ~attrs:(fun () ->
        ("shard", string_of_int i)
        :: (match ctx.Context.trace_id with
           | Some id -> [ ("trace_id", id) ]
           | None -> []))
      (fun () ->
        let t0 = Obs.Clock.now () in
        let list = Query.dispatch ~backend ctx cls f in
        (list, Obs.Clock.now () -. t0))
  in
  let ctxs =
    List.mapi
      (fun i (ctx : Context.t) ->
        (i, if i = 0 then ctx0 else { ctx with metrics = ctx0.Context.metrics }))
      (Array.to_list t.shards)
  in
  match pool t with
  | Some p when Parallel.Pool.domain_count p > 1 && Array.length t.shards > 1
    ->
      Parallel.Pool.parallel_map p one ctxs
  | _ -> List.map one ctxs

let shared_max parts =
  match parts with
  | [] -> fail "Sharded: no shards"
  | (l, _) :: rest ->
      let m = Sim_list.max_sim l in
      List.iter
        (fun (l', _) ->
          if Sim_list.max_sim l' <> m then
            fail
              "Sharded: shards disagree on the formula maximum (%g vs %g)"
              m (Sim_list.max_sim l'))
        rest;
      m

(* Every shard's list paired with its global-id offset, once the shards
   are known to agree on the maximum.  Shard-ordered shifted lists are
   sorted, disjoint, positive and within the maximum already, so both
   gathers below only look at the s-1 shard boundaries, where
   equal-valued entries abutting across shards coalesce (as
   [Sim_list.of_entries] would) — which keeps them byte-equal to
   evaluating the unsharded store. *)
let shifted t parts =
  ignore (shared_max parts);
  List.mapi (fun i (l, _) -> (l, t.offsets.(i))) parts

(* Gather for [run]: the merged list itself. *)
let merge t parts = Sim_list.concat (shifted t parts)

(* Gather for [top_k]: the merged list's length and its k best ids,
   straight from the per-shard lists — no merged list is built. *)
let count_top t ~k parts =
  let parts = shifted t parts in
  (Sim_list.concat_length parts, Engine.Topk.merged_top_k parts ~k)

let note_scatter t ~merge_s parts =
  match metrics t with
  | None -> ()
  | Some m ->
      Obs.Metrics.incr m ~by:(Array.length t.shards) "shard.queries";
      Obs.Metrics.observe m "shard.merge_s" merge_s;
      let lats = List.map snd parts in
      let mx = List.fold_left Float.max 0. lats in
      let mean =
        List.fold_left ( +. ) 0. lats /. float_of_int (List.length lats)
      in
      if mean > 0. then Obs.Metrics.set_gauge m "shard.imbalance" (mx /. mean)

(* One query through [Query.envelope] on shard 0's context: scatter,
   time the gather via [consume] — the full merge ([run]) or the count
   and bounded top-k selection ([top_k]) — and hand the per-shard
   latencies back for the slow-log record. *)
let run_core ~backend t f consume =
  Query.envelope ~backend t.shards.(0) f
    (fun ctx0 cls backend ->
      let parts = eval_parts ~backend t ctx0 cls f in
      let t0 = Obs.Clock.now () in
      let r = consume parts in
      note_scatter t ~merge_s:(Obs.Clock.now () -. t0) parts;
      (r, List.mapi (fun i (_, s) -> (i, s)) parts))

let run ?(backend = Query.Direct_backend) t f =
  run_core ~backend t f (merge t)

let parse src =
  match Htl.Parser.formula_of_string_opt src with
  | Error msg -> fail "syntax error: %s" msg
  | Ok f -> f

let run_string ?backend t src = run ?backend t (parse src)

let top_k ?(backend = Query.Direct_backend) t ~k f =
  run_core ~backend t f (count_top t ~k)

let run_batch ?(backend = Query.Direct_backend) t ~k fs =
  let one f =
    match top_k ~backend t ~k f with
    | r -> Result.Ok r
    | exception Query.Error msg -> Result.Error msg
  in
  match pool t with
  | Some p when Parallel.Pool.domain_count p > 1 && List.length fs > 1 ->
      Parallel.Pool.parallel_map p one fs
  | _ -> List.map one fs

(* --- explain ------------------------------------------------------------- *)

let explain ?(backend = Query.Direct_backend) ?(analyze = false) t f =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "scatter-gather over %d shard%s at level %d (%d segments)@."
    (shard_count t)
    (if shard_count t = 1 then "" else "s")
    t.level (segment_count t);
  let parts =
    if not analyze then None
    else
      match Htl.Classify.check f with
      | Error reason -> fail "unsupported formula: %s" reason
      | Ok cls ->
          (* time uncached evaluations: the rows show each shard's work,
             and the cache stays as shard 0's analyzed tree finds it *)
          let cold =
            { t with shards = Array.map Context.without_cache t.shards }
          in
          Some (eval_parts ~backend cold cold.shards.(0) cls f)
  in
  Array.iteri
    (fun i ctx ->
      Format.fprintf ppf "  shard %d: " i;
      Option.iter
        (fun store ->
          Format.fprintf ppf "videos %d, " (List.length (Store.videos store)))
        ctx.Context.store;
      Format.fprintf ppf "segments %d, offset %d"
        (count_of ctx ~level:t.level)
        t.offsets.(i);
      (match parts with
      | Some parts ->
          let l, s = List.nth parts i in
          Format.fprintf ppf ", time %.6fs, entries %d" s (Sim_list.length l)
      | None -> ());
      Format.fprintf ppf "@.")
    t.shards;
  (match parts with
  | Some parts ->
      let t0 = Obs.Clock.now () in
      let merged = merge t parts in
      Format.fprintf ppf
        "  merge: %d entries, %.6fs (Sim_list.concat: shifted shard lists, \
         coalesced at shard boundaries)@."
        (Sim_list.length merged)
        (Obs.Clock.now () -. t0)
  | None ->
      Format.fprintf ppf
        "  merge: shift by shard offset, coalesce at shard boundaries \
         (/query: count by boundary walk, top-k via Topk.merged_top_k, \
         no merged list)@.");
  Format.fprintf ppf "shard 0 plan:@.%a@." Engine.Explain.pp
    (Query.explain ~backend ~analyze t.shards.(0) f);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* --- mutation routing ---------------------------------------------------- *)

let locate t ~level ~id =
  if level < 1 || level > t.levels then
    invalid_arg (Printf.sprintf "Sharded.locate: level %d not in 1..%d" level
                   t.levels);
  let off = offsets_of t.shards ~level in
  let n = Array.length t.shards in
  let rec find i =
    if i >= n then
      invalid_arg (Printf.sprintf "Sharded.locate: id %d out of range" id)
    else
      let count = Store.count_at (store_of t.shards.(i)) ~level in
      if id > off.(i) && id <= off.(i) + count then (i, id - off.(i))
      else find (i + 1)
  in
  if id < 1 then
    invalid_arg (Printf.sprintf "Sharded.locate: id %d out of range" id);
  find 0

let route t ~level ~id f =
  let shard, local = locate t ~level ~id in
  f (store_of t.shards.(shard)) ~level ~id:local

let update_meta t ~level ~id ~f =
  route t ~level ~id (fun store ~level ~id -> Store.update_meta store ~level ~id ~f)

let set_attr t ~level ~id ~name v =
  route t ~level ~id (fun store ~level ~id ->
      Store.set_attr store ~level ~id ~name v)

let add_object t ~level ~id o =
  route t ~level ~id (fun store ~level ~id ->
      Store.add_object store ~level ~id o)

let remove_object t ~level ~id ~obj =
  route t ~level ~id (fun store ~level ~id ->
      Store.remove_object store ~level ~id ~obj)

let remove_attr t ~level ~id ~name =
  route t ~level ~id (fun store ~level ~id ->
      Store.remove_attr store ~level ~id ~name)

(* --- ingestion ----------------------------------------------------------- *)

(* Appends grow exactly one shard's id space, so the offsets of the
   shards after it shift.  The shard count is fixed for the lifetime of
   the handle, so the array is refreshed in place — contexts derived
   from [t] keep seeing coherent offsets. *)
let refresh_offsets t =
  let off = offsets_of t.shards ~level:t.level in
  Array.blit off 0 t.offsets 0 (Array.length t.offsets)

let video_counts t =
  Array.map
    (fun ctx -> List.length (Store.videos (store_of ~what:"ingestion" ctx)))
    t.shards

let video_count t = Array.fold_left ( + ) 0 (video_counts t)

let append_video t v =
  let last = Array.length t.shards - 1 in
  Store.append_video (store_of ~what:"ingestion" t.shards.(last)) v;
  refresh_offsets t

let append_segments ?video t metas =
  let counts = video_counts t in
  let total = Array.fold_left ( + ) 0 counts in
  let video = match video with Some v -> v | None -> total - 1 in
  if video < 0 || video >= total then
    invalid_arg
      (Printf.sprintf "Sharded.append_segments: video %d not in 0..%d" video
         (total - 1));
  let rec find i acc =
    if video < acc + counts.(i) then (i, video - acc) else find (i + 1) (acc + counts.(i))
  in
  let shard, local = find 0 0 in
  (* [Store.append_segments] extends a store's last video; within a
     contiguous partition only each shard's last video (and globally
     only the corpus's last, unless the caller names an interior
     shard-final video) can grow without renumbering. *)
  if local <> counts.(shard) - 1 then
    invalid_arg
      (Printf.sprintf
         "Sharded.append_segments: video %d is not the last video of shard %d"
         video shard);
  Store.append_segments (store_of t.shards.(shard)) metas;
  refresh_offsets t

(* --- snapshots ----------------------------------------------------------- *)

let save_snapshot t path =
  let shards =
    List.map
      (fun ctx ->
        let store = store_of ctx in
        (* materialise every level through the shard's registry, so the
           snapshot answers any level with zero rebuilds after load *)
        let indexes =
          List.init (Store.levels store) (fun i ->
              Picture.Index.Registry.get ctx.Context.registry
                ?metrics:ctx.Context.metrics store ~level:(i + 1))
        in
        { Storage.Snapshot.store; indexes })
      (Array.to_list t.shards)
  in
  Storage.Snapshot.save path shards

let load_snapshot ?config ?threshold ?conj_mode ?level ?pool ?par_cutoff
    ?metrics ?querylog ?stats path =
  let shards = Storage.Snapshot.load path in
  let ctxs =
    List.map
      (fun { Storage.Snapshot.store; indexes } ->
        let registry = Picture.Index.Registry.create () in
        Picture.Index.Registry.preload registry
          ~version:(Store.version store) indexes;
        Context.with_registry
          (Context.of_store ?config ?threshold ?conj_mode ?level ?pool
             ?par_cutoff ?metrics ?querylog ?stats store)
          registry)
      shards
  in
  make ctxs
