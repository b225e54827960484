exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let named_table (ctx : Context.t) = function
  | Htl.Ast.Atom (Htl.Ast.Rel (name, [])) -> List.assoc_opt name ctx.tables
  | _ -> None

let rec resolve (ctx : Context.t) f =
  match named_table ctx f with
  | Some table -> table
  | None -> (
      match ctx.store with
      | Some store -> (
          (* chunk the per-segment scoring scan across the pool when the
             level is large enough (point (a) of DESIGN.md §2.13) *)
          let pool = Context.pool_for ctx ~n:(Context.segment_count ctx) in
          (* the plan's access-path decision: when the estimated
             selectivity is past the index-vs-scan crossover, evaluate
             this unit as a full scan (pruning is sound either way, so
             only the cost changes) *)
          let config =
            match ctx.plan with
            | Some plan
              when ctx.picture_config.prune && Planner.scan_override plan f
              ->
                { ctx.picture_config with Picture.Retrieval.prune = false }
            | Some _ | None -> ctx.picture_config
          in
          try
            Picture.Retrieval.eval ~config ?pool ?tracer:ctx.tracer
              ?metrics:ctx.metrics ?stats:ctx.stats
              ?index:(Context.index ctx) ~domains:ctx.domains store
              ~level:ctx.level f
          with Picture.Retrieval.Unsupported msg -> raise (Unsupported msg))
      | None -> (
          (* store-less contexts resolve only named tables; decompose the
             unit down to them *)
          match f with
          | Htl.Ast.And (g, h) ->
              Simlist.Sim_table.join
                ~combine:(Simlist.Sim_list.conjunction_mode ctx.conj_mode)
                (resolve ctx g) (resolve ctx h)
          | Htl.Ast.Exists (x, g) ->
              Simlist.Sim_table.project_obj_var (resolve ctx g) x
          | _ ->
              unsupported
                "atomic formula %s: no precomputed table of that name and \
                 no video store configured"
                (Htl.Pretty.to_string f)))

let rec max_of (ctx : Context.t) f =
  match named_table ctx f with
  | Some table -> Simlist.Sim_table.max_sim table
  | None -> (
      match ctx.store with
      | Some _ -> (
          try Picture.Weights.total ctx.picture_config.weights f
          with Invalid_argument msg -> raise (Unsupported msg))
      | None -> (
          match f with
          | Htl.Ast.And (g, h) -> max_of ctx g +. max_of ctx h
          | Htl.Ast.Exists (_, g) -> max_of ctx g
          | _ ->
              unsupported "atomic formula %s has no known maximum similarity"
                (Htl.Pretty.to_string f)))
