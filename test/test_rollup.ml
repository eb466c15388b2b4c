(* The status page renders in O(changed cells): the site roll-up is read
   from per-rank tallies kept up to date by each completion, cluster
   confidence walks a precomputed applicability map, and the HTML is
   written into one buffer.  Each is checked against the computation it
   replaced, kept here as the oracle, and against its allocation bound. *)

module Sp = Framework.Statuspage
module Td = Framework.Testdef

let qc = Qc.to_alcotest
let checkb = Alcotest.(check bool)

(* ---- completions --------------------------------------------------------------- *)

let build_of config result ~finished =
  {
    Ci.Build.job_name = Framework.Jobs.job_name config.Td.family;
    number = 0;
    axes = Td.axes_of_config config;
    cause = "test";
    retry_of = None;
    queued_at = finished;
    started_at = Some finished;
    finished_at = Some finished;
    result;
    log = [];
    artifacts = [];
    touched_hosts = [];
  }

let catalog = Array.of_list (List.concat_map Td.expand Td.all_families)

let env = lazy (Framework.Env.create ~seed:7301L ())

(* A page fed only through [apply]: no build ever runs on the shared
   environment, so the subscription [create] adds stays silent. *)
let fresh_page () = Sp.create (Lazy.force env)

(* ---- the roll-up oracle: the scan [site_status] did before tallies --------------- *)

let cell_of_result = function
  | Ci.Build.Success -> Sp.Ok_
  | Ci.Build.Unstable -> Sp.Unst
  | Ci.Build.Failure | Ci.Build.Aborted | Ci.Build.Not_built -> Sp.Ko

let scope_of_config config =
  match config.Td.cluster with
  | Some cluster -> cluster
  | None -> (
    match config.Td.vlan with
    | Some vlan -> string_of_int vlan
    | None -> Option.value ~default:"global" config.Td.site)

(* (family, site, scope) -> latest cell, maintained from the same
   completions the page sees. *)
type model = (string * string * string, Sp.cell) Hashtbl.t

let model_apply (model : model) build =
  match (Framework.Jobs.config_of_build build, build.Ci.Build.result) with
  | Some config, Some result -> (
    match config.Td.site with
    | Some site ->
      Hashtbl.replace model
        (Td.family_to_string config.Td.family, site, scope_of_config config)
        (cell_of_result result)
    | None -> ())
  | _ -> ()

let worse a b =
  let rank = function Sp.Missing -> 0 | Sp.Ok_ -> 1 | Sp.Unst -> 2 | Sp.Ko -> 3 in
  if rank a >= rank b then a else b

let site_status_oracle (model : model) ~family ~site =
  let family_name = Td.family_to_string family in
  Hashtbl.fold
    (fun (f, s, _) cell acc ->
      if String.equal f family_name && String.equal s site then worse acc cell
      else acc)
    model Sp.Missing

let rollup_agrees page model =
  List.for_all
    (fun family ->
      List.for_all
        (fun site -> Sp.site_status page ~family ~site = site_status_oracle model ~family ~site)
        ("nowhere" :: Testbed.Inventory.sites))
    Td.all_families

(* ---- random completion sequences ------------------------------------------------ *)

(* Few configurations, so scopes repeat and their result changes: the
   first two of every family, the luxembourg and nancy clusters of
   [refapi] (several scopes rolling up into one site), every kavlan vlan
   (local and routed vlans share a site; vlan 300 has none). *)
let pool =
  Array.of_list
    (List.concat_map
       (fun family ->
         let configs = Td.expand family in
         match family with
         | Td.Kavlan -> configs
         | Td.Refapi ->
           List.filter
             (fun c -> c.Td.site = Some "luxembourg" || c.Td.site = Some "nancy")
             configs
         | _ -> List.filteri (fun i _ -> i < 2) configs)
       Td.all_families)

let gen_result =
  QCheck.Gen.oneofl
    [ Some Ci.Build.Success; Some Ci.Build.Success; Some Ci.Build.Unstable;
      Some Ci.Build.Failure; Some Ci.Build.Aborted; Some Ci.Build.Not_built; None ]

type step =
  | Complete of int * Ci.Build.result option * float
  | Foreign  (* a build of a job outside the catalog *)
  | Reset
  | Replay  (* crash recovery: reset, then re-apply every completion *)

let gen_step =
  let open QCheck.Gen in
  frequency
    [ ( 20,
        map3
          (fun i result day -> Complete (i, result, float_of_int day *. Simkit.Calendar.day))
          (int_bound (Array.length pool - 1))
          gen_result (int_bound 90) );
      (1, return Foreign);
      (1, return Reset);
      (1, return Replay) ]

let print_step = function
  | Complete (i, result, t) ->
    Printf.sprintf "%s=%s@%.0f" pool.(i).Td.config_id
      (match result with Some r -> Ci.Build.result_to_string r | None -> "none")
      t
  | Foreign -> "foreign"
  | Reset -> "reset"
  | Replay -> "replay"

let arb_steps =
  QCheck.make
    ~print:(fun steps -> String.concat " " (List.map print_step steps))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 60) gen_step)

let prop_rollup_matches_scan =
  QCheck.Test.make ~count:300 ~name:"site_status equals the scan after every step"
    arb_steps (fun steps ->
      let page = fresh_page () and model = Hashtbl.create 64 in
      let journal = ref [] in
      let apply build =
        Sp.apply page build;
        model_apply model build
      in
      let reset () =
        Sp.reset page;
        Hashtbl.reset model
      in
      rollup_agrees page model
      && List.for_all
           (fun step ->
             (match step with
              | Complete (i, result, finished) ->
                let build = build_of pool.(i) result ~finished in
                journal := build :: !journal;
                apply build
              | Foreign ->
                apply
                  { (build_of pool.(0) (Some Ci.Build.Failure) ~finished:0.0) with
                    Ci.Build.job_name = "deploy_images" }
              | Reset -> reset ()
              | Replay ->
                reset ();
                List.iter apply (List.rev !journal));
             rollup_agrees page model)
           steps)

let test_rollup_empty_page () =
  checkb "an empty page rolls up to Missing everywhere" true
    (rollup_agrees (fresh_page ()) (Hashtbl.create 1))

(* ---- the page oracles: the renderers before the single buffer -------------------- *)

let html_escape_oracle s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let cluster_families_oracle =
  List.filter
    (fun family -> List.exists (fun c -> c.Td.cluster <> None) (Td.expand family))
    Td.all_families

let cluster_score_oracle page ~cluster =
  let cell_value = function
    | Sp.Ok_ -> Some 1.0
    | Sp.Unst -> Some 0.5
    | Sp.Ko -> Some 0.0
    | Sp.Missing -> None
  in
  let total_weight, score =
    List.fold_left
      (fun (weight_acc, score_acc) family ->
        let applicable =
          List.exists (fun c -> c.Td.cluster = Some cluster) (Td.expand family)
        in
        if not applicable then (weight_acc, score_acc)
        else
          match cell_value (Sp.latest page ~family ~scope:cluster) with
          | Some v ->
            let w = Framework.Confidence.family_weight family in
            (weight_acc +. w, score_acc +. (w *. v))
          | None -> (weight_acc, score_acc))
      (0.0, 0.0) cluster_families_oracle
  in
  if total_weight = 0.0 then None else Some (score /. total_weight)

let ranking_oracle page =
  Testbed.Inventory.clusters
  |> List.filter_map (fun spec ->
         let cluster = spec.Testbed.Inventory.cluster in
         Option.map (fun s -> (cluster, s)) (cluster_score_oracle page ~cluster))
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let confidence_render_oracle page =
  Simkit.Table.render ~header:[ "cluster"; "site"; "confidence"; "grade" ]
    (List.map
       (fun (cluster, score) ->
         let site =
           match Testbed.Inventory.find_cluster cluster with
           | Some spec -> spec.Testbed.Inventory.site
           | None -> "?"
         in
         [ cluster; site; Simkit.Table.fmt_pct score; Framework.Confidence.grade score ])
       (ranking_oracle page))

let webstatus_render_oracle page ~site_status =
  let html_escape = html_escape_oracle in
  let matrix_table =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      "<table><caption>Latest result per test and site</caption><tr><th>test</th>";
    List.iter
      (fun site -> Buffer.add_string buf (Printf.sprintf "<th>%s</th>" (html_escape site)))
      Testbed.Inventory.sites;
    Buffer.add_string buf "</tr>";
    List.iter
      (fun family ->
        Buffer.add_string buf
          (Printf.sprintf "<tr><th>%s</th>" (html_escape (Td.family_to_string family)));
        List.iter
          (fun site ->
            let cell = site_status ~family ~site in
            Buffer.add_string buf
              (Printf.sprintf "<td class=\"%s\">%s</td>"
                 (Framework.Webstatus.cell_class cell)
                 (Sp.cell_to_string cell)))
          Testbed.Inventory.sites;
        Buffer.add_string buf "</tr>")
      Td.all_families;
    Buffer.add_string buf "</table>";
    Buffer.contents buf
  in
  let summary_table =
    let buf = Buffer.create 2048 in
    Buffer.add_string buf
      "<table><caption>Per-test summary</caption>\
       <tr><th>test</th><th>ok</th><th>ko</th><th>unstable</th><th>success</th></tr>";
    List.iter
      (fun (name, ok, ko, unstable, ratio) ->
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><th>%s</th><td>%d</td><td>%d</td><td>%d</td><td>%s</td></tr>"
             (html_escape name) ok ko unstable
             (html_escape (Sp.fmt_ratio ratio))))
      (Sp.summary_rows page);
    Buffer.add_string buf "</table>";
    Buffer.contents buf
  in
  let history_table =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      "<table><caption>History (30-day months)</caption>\
       <tr><th>month</th><th>builds</th><th>successful</th><th>success</th></tr>";
    List.iter
      (fun (month, completed, successful, ratio) ->
        Buffer.add_string buf
          (Printf.sprintf "<tr><th>%d</th><td>%d</td><td>%d</td><td>%s</td></tr>" month
             completed successful
             (html_escape (Sp.fmt_ratio ratio))))
      (Sp.monthly_success page);
    Buffer.add_string buf "</table>";
    Buffer.contents buf
  in
  let confidence_table =
    let buf = Buffer.create 2048 in
    Buffer.add_string buf
      "<table><caption>Cluster confidence</caption>\
       <tr><th>cluster</th><th>score</th><th>grade</th></tr>";
    List.iter
      (fun (cluster, score) ->
        let grade = Framework.Confidence.grade score in
        let cls = if score >= 0.9 then "ok" else if score >= 0.5 then "unstable" else "ko" in
        Buffer.add_string buf
          (Printf.sprintf "<tr><th>%s</th><td class=\"%s\">%s</td><td>%s</td></tr>"
             (html_escape cluster) cls
             (html_escape (Simkit.Table.fmt_pct score))
             grade))
      (ranking_oracle page);
    Buffer.add_string buf "</table>";
    Buffer.contents buf
  in
  let style =
    {|<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-bottom: 2em; }
th, td { border: 1px solid #999; padding: 4px 10px; text-align: center; }
th { background: #eee; }
td.ok { background: #bfe8bf; }
td.ko { background: #f2b3b3; }
td.unstable { background: #f8e6a0; }
td.missing { background: #e8e8e8; color: #888; }
caption { font-weight: bold; padding: 6px; text-align: left; }
</style>|}
  in
  String.concat "\n"
    [ "<!DOCTYPE html><html><head><meta charset=\"utf-8\">";
      "<title>Grid'5000 testing status</title>"; style; "</head><body>";
      "<h1>Testbed testing status</h1>"; matrix_table; summary_table;
      confidence_table; history_table; "</body></html>" ]

(* ---- random pages ---------------------------------------------------------------- *)

let populate configs completions =
  let page = fresh_page () and model = Hashtbl.create 256 in
  List.iter
    (fun (i, result, day) ->
      let build =
        build_of configs.(i mod Array.length configs) (Some result)
          ~finished:(float_of_int day *. Simkit.Calendar.day)
      in
      Sp.apply page build;
      model_apply model build)
    completions;
  (page, model)

let cluster_less = Array.of_list (List.filter (fun c -> c.Td.cluster = None) (Array.to_list catalog))

type shape = Anywhere | Cluster_less | All_success

let shape_name = function
  | Anywhere -> "anywhere"
  | Cluster_less -> "cluster-less"
  | All_success -> "all-success"

(* All-success pages tie every cluster at 100%, so the ranking's order
   is the stable sort's; cluster-less pages have no ranking at all. *)
let arb_page =
  let open QCheck.Gen in
  let gen =
    let* shape = oneofl [ Anywhere; Anywhere; Cluster_less; All_success ] in
    let result =
      match shape with
      | All_success -> return Ci.Build.Success
      | Anywhere | Cluster_less ->
        oneofl [ Ci.Build.Success; Ci.Build.Success; Ci.Build.Unstable; Ci.Build.Failure ]
    in
    let+ completions =
      list_size (int_bound 400) (triple (int_bound 100_000) result (int_bound 120))
    in
    (shape, completions)
  in
  QCheck.make
    ~print:(fun (shape, completions) ->
      Printf.sprintf "%s, %d completions" (shape_name shape) (List.length completions))
    gen

let page_of (shape, completions) =
  populate (match shape with Cluster_less -> cluster_less | Anywhere | All_success -> catalog)
    completions

let prop_render_byte_identical =
  QCheck.Test.make ~count:150 ~name:"Webstatus.render equals the old renderer"
    arb_page (fun input ->
      let page, model = page_of input in
      String.equal (Framework.Webstatus.render page)
        (webstatus_render_oracle page ~site_status:(site_status_oracle model)))

let prop_confidence_identical =
  QCheck.Test.make ~count:150 ~name:"Confidence ranking and render equal the old ones"
    arb_page (fun input ->
      let page, _ = page_of input in
      Framework.Confidence.ranking page = ranking_oracle page
      && String.equal (Framework.Confidence.render page) (confidence_render_oracle page)
      && List.for_all
           (fun cluster ->
             Framework.Confidence.cluster_score page ~cluster
             = cluster_score_oracle page ~cluster)
           ("nowhere"
           :: List.map (fun spec -> spec.Testbed.Inventory.cluster) Testbed.Inventory.clusters))

let prop_html_escape =
  QCheck.Test.make ~count:500 ~name:"html_escape equals the old escaper"
    QCheck.(string_gen (Gen.oneofl [ 'a'; ' '; '<'; '>'; '&'; '"'; '\'' ]))
    (fun s -> String.equal (Framework.Webstatus.html_escape s) (html_escape_oracle s))

let test_empty_page_identical () =
  let page = fresh_page () in
  Alcotest.(check string) "all-Missing page"
    (webstatus_render_oracle page ~site_status:(site_status_oracle (Hashtbl.create 1)))
    (Framework.Webstatus.render page);
  Alcotest.(check string) "no confidence rows" (confidence_render_oracle page)
    (Framework.Confidence.render page)

(* ---- allocation ---------------------------------------------------------------- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Every catalog configuration completed once, a third of them red or
   yellow, over two months: the page a campaign shows once the whole
   matrix has run. *)
let full_page () =
  let results = [| Ci.Build.Success; Ci.Build.Failure; Ci.Build.Success; Ci.Build.Unstable |] in
  fst
    (populate catalog
       (List.init (Array.length catalog) (fun i -> (i, results.(i mod 4), i mod 60))))

(* The (family, site) key tuple is the only allocation: 3 words. *)
let test_alloc_site_status () =
  let page = full_page () in
  List.iter
    (fun family ->
      List.iter
        (fun site ->
          let words =
            minor_words (fun () -> ignore (Sys.opaque_identity (Sp.site_status page ~family ~site)))
          in
          checkb
            (Printf.sprintf "site_status %s@%s: %.0f words" (Td.family_to_string family) site words)
            true (words <= 3.0))
        ("nowhere" :: Testbed.Inventory.sites))
    Td.all_families

let test_alloc_html_escape () =
  let s = "graphene" in
  checkb "nothing to escape: the argument itself" true (Framework.Webstatus.html_escape s == s)

(* With a string per cell and per row, a render of this page allocated
   37,353 minor words; written into one buffer it allocates 6,642 (the
   8 kB page itself goes to the major heap), about 2,000 of them the
   confidence ranking and the rest the formatted numbers and row tuples. *)
let render_words_bound = 8_000.0

let test_alloc_render () =
  let page = full_page () in
  ignore (Framework.Webstatus.render page);
  let words = minor_words (fun () -> ignore (Sys.opaque_identity (Framework.Webstatus.render page))) in
  checkb
    (Printf.sprintf "render: %.0f words (bound %.0f)" words render_words_bound)
    true (words <= render_words_bound)

let () =
  Alcotest.run "rollup"
    [
      ( "site-rollup",
        [ qc prop_rollup_matches_scan;
          Alcotest.test_case "empty page" `Quick test_rollup_empty_page ] );
      ( "page-identity",
        [ qc prop_render_byte_identical;
          qc prop_confidence_identical;
          qc prop_html_escape;
          Alcotest.test_case "all-Missing page" `Quick test_empty_page_identical ] );
      ( "allocation",
        [ Alcotest.test_case "site_status" `Quick test_alloc_site_status;
          Alcotest.test_case "html_escape" `Quick test_alloc_html_escape;
          Alcotest.test_case "render" `Quick test_alloc_render ] );
    ]
