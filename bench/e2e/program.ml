(* The benchmark's only window onto the program's libraries.

   Input generation, the in-process correctness oracle and the traced
   replay that times each layer's public functions all live here, so a
   later change to one of those APIs needs an edit to this file alone.
   The load generator, process control and statistics never touch the
   program's code: the served numbers are measured from outside the
   server process. *)

module Json = Obs.Json
module Router = Htl_server.Router
module Http = Htl_server.Http
module Sharded = Htl_shard.Sharded
module Store = Video_model.Store
module Rng = Workload.Rng
module Movies = Workload.Movies

(* htlq serve's default --threshold; the server is started without it *)
let threshold = 0.5

let parse = Htl.Parser.formula_of_string

(* ---- inputs ------------------------------------------------------------- *)

(* What the server is started on: its only non-default flags. *)
type input = Casablanca | Store_file of string | Snapshot_file of string

let serve_flags = function
  | Casablanca -> [ "--dataset"; "casablanca" ]
  | Store_file path -> [ "--load-store"; path ]
  | Snapshot_file path -> [ "--snapshot"; path ]

type query = { q : string; level : int option; k : int }

let query_body { q; level; k } =
  Json.to_string
    (Json.Obj
       ((("query", Json.String q)
        :: (match level with Some l -> [ ("level", Json.Int l) ] | None -> []))
       @ [ ("k", Json.Int k) ]))

(* Distinct formulas, drawn round-robin from [gens] until [n] are found. *)
let distinct_pool ~n gens =
  let seen = Hashtbl.create n in
  let rec go acc i =
    if Hashtbl.length seen >= n then List.rev acc
    else if i > 1000 * n then failwith "formula generators ran dry"
    else
      let f, level = gens.(i mod Array.length gens) () in
      let q = Htl.Pretty.to_string f in
      if Hashtbl.mem seen (q, level) then go acc (i + 1)
      else begin
        Hashtbl.add seen (q, level) ();
        go ((q, level) :: acc) (i + 1)
      end
  in
  go [] 0

(* paper-hot: the paper's Tables 1-2 and Query 1 with three refinements
   over the same two atomic tables *)
let casablanca_queries =
  [
    Workload.Casablanca.query1;
    "eventually moving_train";
    "man_woman until moving_train";
    "man_woman and next (man_woman until moving_train)";
  ]

(* The paper's Table 4 expanded to segments in rank order (value
   descending, ties by id), cut at [k]. *)
let table4_segments ~k =
  Workload.Casablanca.expected_table4
  |> List.concat_map (fun (iv, v) ->
         let lo = Simlist.Interval.lo iv and hi = Simlist.Interval.hi iv in
         List.init (hi - lo + 1) (fun i -> (lo + i, v)))
  |> List.stable_sort (fun (a, va) (b, vb) -> compare (vb, a) (va, b))
  |> List.filteri (fun i _ -> i < k)

(* movies-cold and ingest-mixed: three-level movie stores (video, plot,
   scene) whose meta-data Movies draws at random.  The shape is fixed at
   100 videos of 4 plots of 6 scenes, so every seed serves the same 2.4k
   leaves and the seed moves only what the segments hold. *)
let movies_store rng =
  let meta () = Movies.random_meta rng ~object_pool:8 in
  let node children = Video_model.Segment.make ~meta:(meta ()) children in
  Store.create
    (List.init 100 (fun v ->
         Video_model.Video.create
           ~title:(Printf.sprintf "movie-%d" v)
           ~level_names:[ "video"; "plot"; "scene" ]
           (node
              (List.init 4 (fun _ ->
                   node (List.init 6 (fun _ -> Video_model.Segment.leaf (meta ()))))))))

let save_store path store = Storage.Io.save_store path store
let load_store path = Storage.Io.load_store path

(* type (1) and (2) at depth 2, conjunctive at depth 1, and extended
   conjunctive at depth 2 asserted at level 1, in turn *)
let movies_pool rng ~n =
  distinct_pool ~n
    [|
      (fun () -> (Movies.random_type1_formula rng ~depth:2, None));
      (fun () -> (Movies.random_type2_formula rng ~depth:2, None));
      (fun () -> (Movies.random_conjunctive_formula rng ~depth:1, None));
      (fun () ->
        (Movies.random_extended_formula rng ~depth:2 ~max_level:3, Some 1));
    |]

(* [leaf] formulas at the leaf level, whose cache entries every append
   makes stale, and [scene] at level 2, whose entries survive appends *)
let ingest_pool rng ~leaf ~scene =
  let part n level =
    distinct_pool ~n
      [|
        (fun () -> (Movies.random_type1_formula rng ~depth:2, level));
        (fun () -> (Movies.random_type2_formula rng ~depth:2, level));
      |]
  in
  part leaf None @ part scene (Some 2)

(* One POST /ingest: leaf segments drawn as the movie generator draws
   them.  The wire format carries no bounding boxes, so the batch the
   oracle replays drops them too. *)
type batch = Metadata.Seg_meta.t list

let ingest_batch rng ~segments : batch =
  List.init segments (fun _ ->
      let m = Movies.random_meta rng ~object_pool:8 in
      {
        m with
        Metadata.Seg_meta.objects =
          List.map
            (fun (o : Metadata.Entity.t) -> { o with Metadata.Entity.bbox = None })
            m.Metadata.Seg_meta.objects;
      })

let value_json = function
  | Metadata.Value.Int n -> Json.Int n
  | Metadata.Value.Float f -> Json.Float f
  | Metadata.Value.Str s -> Json.String s
  | Metadata.Value.Bool b -> Json.Bool b

let attrs_json attrs = Json.Obj (List.map (fun (k, v) -> (k, value_json v)) attrs)

let batch_body (batch : batch) =
  let segment (m : Metadata.Seg_meta.t) =
    Json.Obj
      [
        ("attrs", attrs_json m.attrs);
        ( "objects",
          Json.Array
            (List.map
               (fun (o : Metadata.Entity.t) ->
                 Json.Obj
                   [
                     ("id", Json.Int o.id);
                     ("type", Json.String o.otype);
                     ("attrs", attrs_json o.attrs);
                   ])
               m.objects) );
        ( "relationships",
          Json.Array
            (List.map
               (fun (r : Metadata.Relationship.t) ->
                 Json.Obj
                   [
                     ("name", Json.String r.name);
                     ("args", Json.Array (List.map (fun a -> Json.Int a) r.args));
                   ])
               m.relationships) );
      ]
  in
  Json.to_string (Json.Obj [ ("segments", Json.Array (List.map segment batch)) ])

(* sharded-large: two-level videos whose segment
   attributes hit 1 % (rare), 10 % (hot) and 25 % (one of four tones) *)
let tones = [| "warm"; "cold"; "tense"; "flat" |]

let large_store rng ~videos ~leaves =
  Store.create
    (List.init videos (fun v ->
         Video_model.Video.two_level
           ~title:(Printf.sprintf "reel-%02d" v)
           (List.init leaves (fun _ ->
                let tone = tones.(Rng.int rng 4) in
                let hot = Rng.int rng 10 = 0 in
                let rare = Rng.int rng 100 = 0 in
                Metadata.Seg_meta.make
                  ~attrs:
                    ((("tone", Metadata.Value.Str tone)
                     :: (if hot then [ ("hot", Metadata.Value.Str "yes") ] else []))
                    @ if rare then [ ("rare", Metadata.Value.Str "yes") ] else [])
                  ()))))

(* Type (1) shapes up to depth 2.  T is a tone atom (25 %), H hot
   (10 %), R rare (1 %).  The shapes are fixed and the seed picks the
   tones, so every seed serves the same mix of result sizes. *)
let large_shapes =
  [
    "T";
    "T and H";
    "T until H";
    "H until T";
    "next T";
    "eventually (R and T)";
    "T and next H";
    "(T and H) until R";
    "next (T until H)";
    "(eventually T) and H";
    "T until (H and R)";
    "next (next T)";
    "(next T) and (next H)";
    "H and (T until R)";
    "R until T";
    "eventually T";
  ]

let large_pool rng =
  let shift = Rng.int rng 4 in
  List.concat_map
    (fun i ->
      let tone = Printf.sprintf "seg.tone = %S" tones.((i + shift) mod 4) in
      List.map
        (fun shape ->
          String.concat ""
            (List.map
               (function
                 | 'T' -> tone
                 | 'H' -> "seg.hot = \"yes\""
                 | 'R' -> "seg.rare = \"yes\""
                 | c -> String.make 1 c)
               (List.of_seq (String.to_seq shape))))
        large_shapes)
    [ 0; 1; 2; 3 ]

(* Partition into [shards] by video, finalize every level's index and
   write the binary snapshot [htlq serve --snapshot] boots from. *)
let save_snapshot path ~shards store =
  Sharded.save_snapshot (Sharded.create ~shards ~threshold store) path

(* ---- correctness oracle ----------------------------------------------- *)

(* A response reduced to what the oracle can recompute: the formula
   class, the result count and the ranked top k with exact values. *)
type answer = { cls : string; count : int; top : (int * float * float) list }

let answer_of_list f list ~k =
  {
    cls = Htl.Classify.cls_to_string (Htl.Classify.classify f);
    count = Simlist.Sim_list.length list;
    top =
      List.map
        (fun (id, s) -> (id, Simlist.Sim.actual s, Simlist.Sim.max_sim s))
        (Engine.Topk.top_k list ~k);
  }

let answer_of_body body =
  let ( let* ) = Result.bind in
  let* json = Json.of_string body in
  let* cls =
    match Json.member "class" json with
    | Some (Json.String s) -> Ok s
    | _ -> Error "response has no class"
  in
  let* count =
    match Json.member "count" json with
    | Some (Json.Int n) -> Ok n
    | _ -> Error "response has no count"
  in
  let* results =
    match Json.member "results" json with
    | Some r -> Router.results_of_json r
    | None -> Error "response has no results"
  in
  Ok
    {
      cls;
      count;
      top =
        List.map
          (fun (id, s) -> (id, Simlist.Sim.actual s, Simlist.Sim.max_sim s))
          results;
    }

let pp_answer a =
  Printf.sprintf "class %s, count %d, top [%s]" a.cls a.count
    (String.concat "; "
       (List.map (fun (id, v, _) -> Printf.sprintf "%d:%.17g" id v) a.top))

(* The oracle evaluates without a cache, without the planner and on one
   unsharded store: none of the mechanisms the server layers on top.  It
   is a pure function of the query, safe to call from several domains. *)
type oracle = query -> answer

let oracle_of_ctx level_ctx { q; level; k } =
  let f = parse q in
  answer_of_list f (Engine.Query.run (level_ctx level) f) ~k

let bare ctx = Engine.Context.without_planner (Engine.Context.without_cache ctx)

let casablanca_oracle () : oracle =
  let ctx = bare { (Workload.Casablanca.context ()) with Engine.Context.threshold } in
  oracle_of_ctx (fun _ -> ctx)

(* one context per level, made up front, so each index builds once *)
let store_oracle store : oracle =
  let levels = Store.levels store in
  let ctxs =
    Array.init levels (fun i -> bare (Engine.Context.of_store ~threshold ~level:(i + 1) store))
  in
  oracle_of_ctx (fun level -> ctxs.(Option.value level ~default:levels - 1))

let check_answer oracle query body =
  match answer_of_body body with
  | Error msg -> Error ("unreadable response: " ^ msg)
  | Ok got -> (
      match oracle query with
      | exception e -> Error ("oracle failed: " ^ Printexc.to_string e)
      | want ->
          if got = want then Ok ()
          else
            Error
              (Printf.sprintf "served %s, oracle %s" (pp_answer got)
                 (pp_answer want)))

(* Query 1 against the paper's Table 4, value for value at the paper's
   three decimals. *)
let check_table4 ~k body =
  match answer_of_body body with
  | Error msg -> Error ("unreadable response: " ^ msg)
  | Ok got ->
      let show l =
        String.concat " "
          (List.map (fun (id, v) -> Printf.sprintf "%d:%.3f" id v) l)
      in
      let got = show (List.map (fun (id, v, _) -> (id, v)) got.top) in
      let want = show (table4_segments ~k) in
      if got = want then Ok ()
      else Error (Printf.sprintf "served %s, Table 4 says %s" got want)

let append store (batch : batch) = Store.append_segments store batch

(* ---- traced replay ----------------------------------------------------- *)

(* One replayed request: the exact bytes the load generator sent. *)
type item =
  | Query_req of { raw : string; query : query }
  | Ingest_req of { raw : string; batch : batch }

(* The state [htlq serve] builds for [input] with default flags. *)
let serve_state input =
  let metrics = Obs.Metrics.create () in
  let querylog = Obs.Querylog.create ~threshold_s:0.1 () in
  let stats = Obs.Stats.create () in
  match input with
  | Casablanca ->
      Router.make ~metrics ~querylog ~stats
        (Engine.Context.with_fresh_cache
           { (Workload.Casablanca.context ()) with Engine.Context.threshold })
  | Store_file path ->
      Router.make ~metrics ~querylog ~stats
        (Engine.Context.of_store ~threshold (load_store path))
  | Snapshot_file path ->
      let sh =
        Sharded.load_snapshot ~threshold ~metrics ~querylog ~stats path
      in
      Router.make ~metrics ~querylog ~stats ~sharded:sh (Sharded.contexts sh).(0)

let string_reader s =
  let pos = ref 0 in
  Http.reader (fun buf off len ->
      let n = min len (String.length s - !pos) in
      Bytes.blit_string s !pos buf off n;
      pos := !pos + n;
      n)

let read_request raw =
  match Http.read_request (string_reader raw) with
  | Ok req -> req
  | Error _ -> failwith "replay: the recorded request does not parse"

let get = function Ok v -> v | Error msg -> failwith ("replay: " ^ msg)

(* The router's level handling, on each arm *)
let plain_at ctx = function
  | None -> ctx
  | Some level -> (
      match ctx.Engine.Context.store with
      | Some store ->
          Engine.Context.with_level ctx ~level
            ~extents:(Store.extents_at store ~level)
      | None -> failwith "replay: level on a store-less dataset")

let evaluate state (r : Router.query_req) f =
  match Router.sharded state with
  | Some sh ->
      let sh =
        match r.level with Some level -> Sharded.with_level sh ~level | None -> sh
      in
      Sharded.run ~backend:r.backend sh f
  | None ->
      Engine.Query.run_observed ~backend:r.backend
        (plain_at (Router.context state) r.level)
        f

(* Contexts a cacheless, unobserved copy of the state evaluates on: one
   per shard. *)
let bare_contexts state level =
  let strip ctx =
    Engine.Context.without_cache ctx
    |> Engine.Context.without_metrics |> Engine.Context.without_querylog
    |> Engine.Context.without_stats
  in
  match Router.sharded state with
  | Some sh ->
      let sh =
        match level with Some level -> Sharded.with_level sh ~level | None -> sh
      in
      Array.to_list (Array.map strip (Sharded.contexts sh))
  | None -> [ strip (plain_at (Router.context state) level) ]

(* Maximal non-temporal subformulas: the atomic units the evaluators hand
   to the picture retrieval layer.  Units under a level operator are
   resolved at another level and are left to the algebra share. *)
let atomic_units f =
  let open Htl.Ast in
  let rec go acc g =
    if is_non_temporal g then g :: acc
    else
      match g with
      | And (a, b) | Or (a, b) | Until (a, b) -> go (go acc a) b
      | Not a | Next a | Eventually a | Exists (_, a) -> go acc a
      | Freeze fr -> go acc fr.body
      | At_level _ | Atom _ -> acc
  in
  go [] f

type timings = {
  samples : (string, float list ref) Hashtbl.t;
      (** per name, one value per replayed request (µs unless noted) *)
  inner_sum_us : float list;
      (** per query request: decode + parse + classify + eval + top-k +
          encode, the work [Router.handle] does for it *)
  handle_us : float list;  (** per query request, aligned with the sums *)
  minor_words : float;  (** allocated on the replaying domain *)
  major_collections : int;
  queries : int;
  split_queries : int;  (** distinct queries given the retrieval split *)
}

(* distinct queries given the retrieval split: it evaluates cacheless *)
let split_cap = 64

let replay ~now_ns input items =
  let a = serve_state input and b = serve_state input in
  let samples = Hashtbl.create 16 in
  let record name v =
    match Hashtbl.find_opt samples name with
    | Some l -> l := v :: !l
    | None -> Hashtbl.add samples name (ref [ v ])
  in
  let us t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e3 in
  let timed name f =
    let t0 = now_ns () in
    let r = f () in
    let v = us t0 (now_ns ()) in
    record name v;
    (r, v)
  in
  let inner = ref [] and handles = ref [] in
  let minor = ref 0. and majors = ref 0 and queries = ref 0 in
  let split_seen = Hashtbl.create 64 in
  let store_a () =
    match (Router.context a).Engine.Context.store with
    | Some s -> s
    | None -> failwith "replay: ingestion needs a store"
  in
  let run_a = function
    | Query_req { raw; _ } ->
        let req, _ = timed "http.parse_us" (fun () -> read_request raw) in
        let r, t_dec =
          timed "router.decode_us" (fun () ->
              get (Result.bind (Json.of_string req.Http.body) Router.query_req_of_json))
        in
        let f, t_parse =
          timed "htl.parse_us" (fun () -> get (Htl.Parser.formula_of_string_opt r.q))
        in
        let cls, t_cls = timed "htl.classify_us" (fun () -> Htl.Classify.classify f) in
        let list, t_eval = timed "engine.eval_us" (fun () -> evaluate a r f) in
        let top, t_top = timed "engine.topk_us" (fun () -> Engine.Topk.top_k list ~k:r.k) in
        let body, t_enc =
          timed "router.encode_us" (fun () ->
              Json.to_string
                (Json.Obj
                   [
                     ("class", Json.String (Htl.Classify.cls_to_string cls));
                     ("count", Json.Int (Simlist.Sim_list.length list));
                     ("results", Router.results_to_json top);
                   ])
              ^ "\n")
        in
        ignore
          (timed "http.write_us" (fun () ->
               Http.to_string ~keep_alive:true
                 (Http.response
                    ~headers:[ ("Content-Type", "application/json") ]
                    ~status:200 body)));
        Some (t_dec +. t_parse +. t_cls +. t_eval +. t_top +. t_enc)
    | Ingest_req { batch; _ } ->
        ignore (timed "video.append_us" (fun () -> append (store_a ()) batch));
        None
  in
  let run_b raw =
    let req = read_request raw in
    let t0 = now_ns () in
    let resp = Router.handle b req in
    let t = us t0 (now_ns ()) in
    if resp.Http.status <> 200 then
      failwith (Printf.sprintf "replay: router answered %d" resp.Http.status);
    t
  in
  let split (query : query) =
    let f = parse query.q in
    let ctxs = bare_contexts a query.level in
    let retrieval = ref 0. in
    List.iter
      (fun ctx ->
        List.iter
          (fun u ->
            let t0 = now_ns () in
            match Engine.Atomic.resolve ctx u with
            | _ -> retrieval := !retrieval +. us t0 (now_ns ())
            | exception Engine.Atomic.Unsupported _ -> ())
          (atomic_units f))
      ctxs;
    let t0 = now_ns () in
    List.iter (fun ctx -> ignore (Engine.Query.run ctx f)) ctxs;
    let total = us t0 (now_ns ()) in
    record "picture.retrieval_us" !retrieval;
    record "simlist.algebra_us" (Float.max 0. (total -. !retrieval))
  in
  List.iteri
    (fun i item ->
      let raw = match item with Query_req { raw; _ } | Ingest_req { raw; _ } -> raw in
      (* alternate which state goes first, so neither always runs on
         caches the other just warmed *)
      let measure_a () =
        let sum, gc = Obs.Resource.measure (fun () -> run_a item) in
        minor := !minor +. gc.Obs.Resource.minor_words;
        majors := !majors + gc.Obs.Resource.major_collections;
        sum
      in
      let sum, handle =
        if i mod 2 = 0 then
          let s = measure_a () in
          (s, run_b raw)
        else
          let h = run_b raw in
          (measure_a (), h)
      in
      match (sum, item) with
      | Some s, Query_req { query; _ } ->
          incr queries;
          inner := s :: !inner;
          handles := handle :: !handles;
          record "router.handle_us" handle;
          if
            Hashtbl.length split_seen < split_cap
            && not (Hashtbl.mem split_seen query)
          then begin
            Hashtbl.add split_seen query ();
            split query
          end
      | _ -> ())
    items;
  Hashtbl.iter (fun _ l -> l := List.rev !l) samples;
  {
    samples;
    inner_sum_us = List.rev !inner;
    handle_us = List.rev !handles;
    minor_words = !minor;
    major_collections = !majors;
    queries = !queries;
    split_queries = Hashtbl.length split_seen;
  }
