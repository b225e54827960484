module Smap = Map.Make (String)

type t = { parent : string option Smap.t }

let empty = { parent = Smap.empty }

let mem t name = Smap.mem name t.parent

let add t ?parent name =
  if mem t name then invalid_arg (Printf.sprintf "Taxonomy.add: %S exists" name);
  (match parent with
  | Some p when not (mem t p) ->
      invalid_arg (Printf.sprintf "Taxonomy.add: unknown parent %S" p)
  | Some _ | None -> ());
  { parent = Smap.add name parent t.parent }

let of_edges edges =
  List.fold_left (fun t (parent, child) -> add t ?parent child) empty edges

let default =
  of_edges
    [
      (None, "thing");
      (Some "thing", "person");
      (Some "person", "man");
      (Some "person", "woman");
      (Some "thing", "vehicle");
      (Some "vehicle", "train");
      (Some "vehicle", "car");
      (Some "vehicle", "airplane");
      (Some "thing", "animal");
      (Some "animal", "horse");
      (Some "animal", "dog");
      (Some "thing", "weapon");
      (Some "weapon", "gun");
      (Some "weapon", "rifle");
      (Some "thing", "structure");
      (Some "structure", "building");
      (Some "structure", "bridge");
    ]

(* ancestors of [name] from itself up to the root, with distances *)
let ancestors t name =
  let rec go name d acc =
    let acc = (name, d) :: acc in
    match Smap.find_opt name t.parent with
    | Some (Some p) -> go p (d + 1) acc
    | Some None | None -> acc
  in
  go name 0 []

let is_subtype t ~sub ~super =
  String.equal sub super
  || (mem t sub && List.exists (fun (a, _) -> String.equal a super) (ancestors t sub))

(* the root of [name]'s tree; [Smap.find] returns the stored option, so
   the walk allocates nothing *)
let rec root t name =
  match Smap.find name t.parent with Some p -> root t p | None -> name

let compatible t ~asked ~found =
  String.equal asked found
  || (mem t asked && mem t found && String.equal (root t asked) (root t found))

let similarity t ~asked ~found =
  if String.equal asked found then 1.
  else if not (mem t asked && mem t found) then 0.
  else if is_subtype t ~sub:found ~super:asked then 1.
  else
    let up_f = ancestors t found in
    let best = ref None in
    List.iter
      (fun (a, da) ->
        match List.assoc_opt a up_f with
        | Some df -> (
            let cost = da + df in
            match !best with
            | Some b when b <= cost -> ()
            | _ -> best := Some cost)
        | None -> ())
      (ancestors t asked);
    match !best with
    | None -> 0.
    | Some cost -> Float.pow 2. (-.float_of_int cost)
