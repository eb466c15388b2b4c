type better = Lower | Higher

type row = {
  metric : string;
  value : float;
  better : better;
  tolerance_pct : float;
  floor : float option;
}

let better_name = function Lower -> "lower" | Higher -> "higher"

let rows_to_json rows =
  let open Simkit.Json in
  let row r =
    Obj
      ([ ("metric", String r.metric); ("value", Float r.value);
         ("better", String (better_name r.better)); ("tolerance_pct", Float r.tolerance_pct) ]
      @ Option.fold ~none:[] ~some:(fun f -> [ ("floor", Float f) ]) r.floor)
  in
  List (List.map row rows)

let ( let* ) = Result.bind

let row_of_json i json =
  let fail name what = Error (Printf.sprintf "gates[%d].%s %s" i name what) in
  let get name = Simkit.Json.member name json in
  let number name = function
    | Some (Simkit.Json.Float f) when Float.is_finite f -> Ok f
    | Some (Simkit.Json.Int n) -> Ok (float_of_int n)
    | None -> fail name "is missing"
    | Some _ -> fail name "is not a finite number"
  in
  let* metric =
    match get "metric" with
    | Some (Simkit.Json.String m) -> Ok m
    | _ -> fail "metric" "is missing or not a string"
  in
  let* value = number "value" (get "value") in
  let* better =
    match get "better" with
    | Some (Simkit.Json.String "lower") -> Ok Lower
    | Some (Simkit.Json.String "higher") -> Ok Higher
    | _ -> fail "better" "is not \"lower\" or \"higher\""
  in
  let* tolerance_pct = number "tolerance_pct" (get "tolerance_pct") in
  let* () = if tolerance_pct < 0.0 then fail "tolerance_pct" "is negative" else Ok () in
  let* floor =
    if get "floor" = None then Ok None else Result.map Option.some (number "floor" (get "floor"))
  in
  Ok { metric; value; better; tolerance_pct; floor }

let load text =
  let* json = Result.map_error (( ^ ) "not JSON: ") (Simkit.Json.of_string text) in
  let rec rows i seen = function
    | [] -> Ok []
    | item :: rest ->
      let* row = row_of_json i item in
      if List.mem row.metric seen then
        Error (Printf.sprintf "gates[%d].metric %S is a duplicate" i row.metric)
      else
        let* tail = rows (i + 1) (row.metric :: seen) rest in
        Ok (row :: tail)
  in
  match Simkit.Json.member "gates" json with
  | Some (Simkit.Json.List []) -> Error "array \"gates\" is empty"
  | Some (Simkit.Json.List items) -> rows 0 [] items
  | _ -> Error "missing array \"gates\""

(* The floor, when present, loosens the relative limit and never tightens it. *)
let limit r =
  let relative sign = r.value *. (1.0 +. (sign *. r.tolerance_pct /. 100.0)) in
  match r.better with
  | Lower -> Option.fold r.floor ~none:(relative 1.0) ~some:(Float.max (relative 1.0))
  | Higher -> Option.fold r.floor ~none:(relative (-1.0)) ~some:(Float.min (relative (-1.0)))

type verdict = { ok : bool; lines : string list }

let check ~baseline ~current =
  let find rows metric = List.find_opt (fun r -> r.metric = metric) rows in
  let gate b =
    match find current b.metric with
    | None ->
      (false, Printf.sprintf "%s: baseline %g, MISSING from the current run" b.metric b.value)
    | Some c ->
      let l = limit b in
      let ok = match b.better with Lower -> c.value <= l | Higher -> c.value >= l in
      let delta = if b.value = 0.0 then 0.0 else (c.value -. b.value) /. b.value *. 100.0 in
      ( ok,
        Printf.sprintf "%s: baseline %g, current %g (%+.1f%%; %s is better, limit %g) %s"
          b.metric b.value c.value delta (better_name b.better) l
          (if ok then "ok" else "REGRESSED") )
  in
  let gated = List.map (fun b -> (b.metric, gate b)) baseline in
  let extra =
    List.filter (fun c -> find baseline c.metric = None) current
    |> List.map (fun c ->
           Printf.sprintf "%s: current %g (not in the baseline, not gated)" c.metric c.value)
  in
  let failed = List.filter_map (fun (m, (ok, _)) -> if ok then None else Some m) gated in
  { ok = failed = [];
    lines =
      List.map (fun (_, (_, line)) -> line) gated
      @ extra
      @ [ (if failed = [] then "perfgate: PASS"
           else "perfgate: FAIL (" ^ String.concat ", " failed ^ ")") ] }
