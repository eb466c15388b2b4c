let family_weight = function
  (* Silent performance skew: worst for reproducibility. *)
  | Testdef.Refapi | Testdef.Disk -> 3.0
  | Testdef.Mpigraph | Testdef.Dellbios -> 2.0
  (* Availability/reliability of the machinery. *)
  | Testdef.Environments | Testdef.Stdenv | Testdef.Multireboot | Testdef.Multideploy ->
    1.5
  | Testdef.Oarproperties | Testdef.Console | Testdef.Kavlan | Testdef.Kwapi
  | Testdef.Paralleldeploy | Testdef.Oarstate | Testdef.Cmdline | Testdef.Sidapi ->
    1.0

(* The catalog and the inventory are static, so which families apply to
   a cluster never changes: cluster -> (family, weight) in
   [Testdef.all_families] order, computed once. *)
let applicable : (string, (Testdef.family * float) array) Hashtbl.t =
  let table = Hashtbl.create 64 in
  List.iter
    (fun spec ->
      let cluster = spec.Testbed.Inventory.cluster in
      Testdef.all_families
      |> List.filter (fun family ->
             List.exists
               (fun c -> c.Testdef.cluster = Some cluster)
               (Testdef.expand family))
      |> List.map (fun family -> (family, family_weight family))
      |> Array.of_list
      |> Hashtbl.replace table cluster)
    Testbed.Inventory.clusters;
  table

let cell_value = function
  | Statuspage.Ok_ -> 1.0
  | Statuspage.Unst -> 0.5
  | Statuspage.Ko | Statuspage.Missing -> 0.0

let cluster_score page ~cluster =
  match Hashtbl.find_opt applicable cluster with
  | None -> None
  | Some families ->
    let total_weight = ref 0.0 and score = ref 0.0 in
    for i = 0 to Array.length families - 1 do
      let family, w = families.(i) in
      match Statuspage.latest page ~family ~scope:cluster with
      | Statuspage.Missing -> ()
      | cell ->
        total_weight := !total_weight +. w;
        score := !score +. (w *. cell_value cell)
    done;
    if !total_weight = 0.0 then None else Some (!score /. !total_weight)

let grade score =
  if score >= 0.9 then "A" else if score >= 0.75 then "B" else if score >= 0.5 then "C"
  else "D"

let ranking page =
  Testbed.Inventory.clusters
  |> List.filter_map (fun spec ->
         let cluster = spec.Testbed.Inventory.cluster in
         Option.map (fun s -> (cluster, s)) (cluster_score page ~cluster))
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let render page =
  Simkit.Table.render ~header:[ "cluster"; "site"; "confidence"; "grade" ]
    (List.map
       (fun (cluster, score) ->
         let site =
           match Testbed.Inventory.find_cluster cluster with
           | Some spec -> spec.Testbed.Inventory.site
           | None -> "?"
         in
         [ cluster; site; Simkit.Table.fmt_pct score; grade score ])
       (ranking page))
