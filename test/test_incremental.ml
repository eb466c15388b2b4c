(* State the testbed re-checks all the time is only re-derived when it
   changed: the OAR property memo and the filter cache it guards, the
   equal-subtree shortcut of [Json.diff], and the allocation-free host
   probes of the OAR scheduler.  Each shortcut is checked against the
   plain computation it replaces. *)

let qc = Qc.to_alcotest
let checkb = Alcotest.(check bool)

open Simkit.Json

(* ---- Json.diff against the exhaustive walk -------------------------------- *)

(* The walk [Json.diff] did before it skipped equal subtrees: every key
   and every list index is visited and given a path. *)
let diff_oracle reference actual =
  let out = ref [] in
  let record path a b = out := (path, a, b) :: !out in
  let rec go path a b =
    match (a, b) with
    | Obj ma, Obj mb ->
      let keys =
        List.sort_uniq String.compare (List.map fst ma @ List.map fst mb)
      in
      List.iter
        (fun k ->
          let sub = if path = "" then k else path ^ "/" ^ k in
          match (List.assoc_opt k ma, List.assoc_opt k mb) with
          | Some va, Some vb -> go sub va vb
          | Some va, None -> record sub (Some va) None
          | None, Some vb -> record sub None (Some vb)
          | None, None -> ())
        keys
    | List la, List lb when List.length la = List.length lb ->
      List.iteri (fun i (va, vb) -> go (Printf.sprintf "%s/%d" path i) va vb)
        (List.combine la lb)
    | a, b -> if not (equal a b) then record path (Some a) (Some b)
  in
  go "" reference actual;
  List.rev !out

(* Few keys, so objects often repeat one; numbers drawn so that [Int n]
   and [Float n.] meet. *)
let gen_leaf =
  let open QCheck.Gen in
  oneof
    [ return Null;
      map (fun b -> Bool b) bool;
      map (fun n -> Int n) (int_range (-2) 2);
      map (fun n -> Float (float_of_int n)) (int_range (-2) 2);
      map (fun f -> Float f) (oneofl [ 0.5; -0.0; Float.nan ]);
      map (fun s -> String s) (oneofl [ "x"; "y" ]) ]

let gen_key = QCheck.Gen.oneofl [ "a"; "b"; "c"; "hw" ]

let rec gen_doc depth =
  let open QCheck.Gen in
  if depth = 0 then gen_leaf
  else
    frequency
      [ (2, gen_leaf);
        (1, map (fun l -> List l) (list_size (int_bound 3) (gen_doc (depth - 1))));
        (2, map (fun m -> Obj m) (list_size (int_bound 4) (pair gen_key (gen_doc (depth - 1))))) ]

(* A variant of [doc] sharing most of it: members reordered, dropped or
   added, lists shortened or grown, numbers switched between Int and
   Float, leaves replaced; unchanged parts stay physically shared. *)
let rec gen_variant doc =
  let open QCheck.Gen in
  match doc with
  | Obj members ->
    let* members =
      flatten_l (List.map (fun (k, v) -> map (fun v -> (k, v)) (gen_variant v)) members)
    in
    frequency
      [ (3, return (Obj members));
        (1, map (fun m -> Obj m) (shuffle_l members));
        (1, return (Obj (match members with [] -> [] | _ :: rest -> rest)));
        (1, map (fun kv -> Obj (members @ [ kv ])) (pair gen_key gen_leaf)) ]
  | List items ->
    let* items = flatten_l (List.map gen_variant items) in
    frequency
      [ (3, return (List items));
        (1, return (List (match items with [] -> [] | _ :: rest -> rest)));
        (1, map (fun v -> List (items @ [ v ])) gen_leaf) ]
  | Int n -> frequency [ (3, return doc); (1, return (Float (float_of_int n))); (1, gen_leaf) ]
  | Float f when Float.is_integer f ->
    frequency [ (3, return doc); (1, return (Int (int_of_float f))); (1, gen_leaf) ]
  | _ -> frequency [ (4, return doc); (1, gen_leaf) ]

let gen_doc_pair =
  let open QCheck.Gen in
  let* doc = gen_doc 3 in
  frequency [ (1, map (fun other -> (doc, other)) (gen_doc 3)); (4, map (fun v -> (doc, v)) (gen_variant doc)) ]

let prop_diff_matches_oracle =
  QCheck.Test.make ~name:"json diff matches the exhaustive walk" ~count:2000
    (QCheck.make gen_doc_pair ~print:(fun (a, b) ->
         Printf.sprintf "%s\nvs\n%s" (to_string a) (to_string b)))
    (fun (a, b) ->
      (* [compare], not [=]: a recorded NaN must equal itself. *)
      compare (diff a b) (diff_oracle a b) = 0)

let test_diff_cases () =
  let doc = Obj [ ("a", Int 1); ("b", List [ Float 2.0; String "x" ]); ("c", Obj [ ("d", Null) ]) ] in
  let same = Obj [ ("a", Float 1.0); ("b", List [ Int 2; String "x" ]); ("c", Obj [ ("d", Null) ]) ] in
  checkb "Int/Float mix is no difference" true (diff doc same = []);
  let reordered = Obj [ ("c", Obj [ ("d", Null) ]); ("a", Int 1); ("b", List [ Float 2.0; String "x" ]) ] in
  checkb "reordered keys match the walk" true (diff doc reordered = diff_oracle doc reordered);
  let nested = Obj [ ("a", Int 1); ("b", List [ Float 2.0; String "y" ]); ("c", Obj [ ("d", Bool true) ]) ] in
  Alcotest.(check (list string))
    "paths of nested differences" [ "b/1"; "c/d" ]
    (List.map (fun (p, _, _) -> p) (diff doc nested));
  let dup = Obj [ ("a", Int 1); ("a", Int 2) ] in
  checkb "duplicate keys match the walk" true
    (diff dup (Obj [ ("a", Int 1) ]) = diff_oracle dup (Obj [ ("a", Int 1) ]))

(* ---- Property memo and filter cache --------------------------------------- *)

(* A few hosts of four clusters on three sites, one of them with GPUs, so
   that random operations keep hitting the same rows. *)
let pool =
  [| "orion-1.lyon"; "orion-2.lyon"; "graphene-1.nancy"; "graphene-2.nancy";
     "grisou-1.nancy"; "granduc-1.luxembourg" |]

type op =
  | Corrupt of int
  | Publish of int
  | Reset of int
  | Inject of Testbed.Faults.kind * int
  | Repair of Testbed.Faults.kind
  | Refresh

let op_to_string = function
  | Corrupt i -> "corrupt " ^ pool.(i)
  | Publish i -> "publish " ^ pool.(i)
  | Reset i -> "reset " ^ pool.(i)
  | Inject (k, i) -> Printf.sprintf "inject %s %s" (Testbed.Faults.kind_to_string k) pool.(i)
  | Repair k -> "repair " ^ Testbed.Faults.kind_to_string k
  | Refresh -> "refresh"

let gen_op =
  let open QCheck.Gen in
  let host = int_bound (Array.length pool - 1) in
  let kind = oneofl Testbed.Faults.[ Refapi_desync; Oar_property_desync ] in
  frequency
    [ (2, map (fun i -> Corrupt i) host);
      (2, map (fun i -> Publish i) host);
      (1, map (fun i -> Reset i) host);
      (2, map2 (fun k i -> Inject (k, i)) kind host);
      (2, map (fun k -> Repair k) kind);
      (3, return Refresh) ]

(* Catalog filters of the pool's clusters and sites (plus the site-less
   empty filter), alone or narrowed by a property that corruption and
   desync flags can change. *)
let filters =
  let clusters = Array.to_list (Array.map (fun h -> List.hd (String.split_on_char '-' h)) pool) in
  let sites = Array.to_list (Array.map (fun h -> List.nth (String.split_on_char '.' h) 1) pool) in
  let bases =
    Framework.Testdef.catalog ()
    |> List.filter (fun c ->
           match (c.Framework.Testdef.cluster, c.Framework.Testdef.site) with
           | Some cluster, _ -> List.mem cluster clusters
           | None, Some site -> List.mem site sites
           | None, None -> true)
    |> List.map Framework.Testdef.oar_filter
    |> List.sort_uniq String.compare
  in
  let narrowing = [ ""; "gpu='YES'"; "gpu='NO'"; "memnode>=128"; "cores>=16" ] in
  List.concat_map
    (fun base ->
      List.map
        (fun n -> if n = "" then base else if base = "" then n else base ^ " and " ^ n)
        narrowing)
    bases
  |> Array.of_list

let gen_filters =
  QCheck.Gen.(list_size (int_range 1 6) (map (fun i -> filters.(i)) (int_bound (Array.length filters - 1))))

let matching props expr =
  List.filter
    (fun host -> Oar.Expr.eval expr ~props:(Oar.Property.props_fun props ~host))
    (Oar.Property.hosts props)

let rows props = List.map (fun host -> Oar.Property.all_of props ~host) (Oar.Property.hosts props)

(* After every refresh, the manager's rows and filter answers equal those
   of a property database derived from scratch, and a memo refreshed
   alongside reports a change exactly when some row changed. *)
let prop_memo_never_stale =
  QCheck.Test.make ~name:"property memo and filter cache never go stale" ~count:60
    (QCheck.make
       QCheck.Gen.(pair gen_filters (list_size (int_range 1 25) gen_op))
       ~print:(fun (fs, ops) ->
         String.concat "; " fs ^ "\n" ^ String.concat "\n" (List.map op_to_string ops)))
    (fun (fs, ops) ->
      let instance = Testbed.Instance.build ~seed:7L () in
      let oar = Oar.Manager.create instance in
      let faults = instance.Testbed.Instance.faults in
      let ctx = Testbed.Faults.context faults in
      let refapi = ctx.Testbed.Faults.refapi in
      let memo = Oar.Property.create () in
      ignore (Oar.Property.refresh_from_refapi memo ctx);
      let rng = Simkit.Prng.create 11L in
      let injected = ref [] in
      let exprs = List.map Oar.Expr.parse_exn fs in
      (* Warm the filter cache so that a refresh that wrongly keeps it
         shows up as a stale answer. *)
      List.iter (fun e -> ignore (Oar.Manager.matching_hosts oar e)) exprs;
      let step op =
        match op with
        | Corrupt i -> ignore (Testbed.Refapi.corrupt refapi ~rng ~host:pool.(i)); true
        | Publish i ->
          Testbed.Refapi.publish_node refapi (Testbed.Instance.node instance pool.(i));
          true
        | Reset i -> Testbed.Node.reset_to_reference (Testbed.Instance.node instance pool.(i)); true
        | Inject (kind, i) ->
          (match Testbed.Faults.inject_on faults ~now:0.0 kind (Testbed.Faults.Host pool.(i)) with
           | Some f -> injected := f :: !injected
           | None -> ());
          true
        | Repair kind ->
          (match List.find_opt (fun f -> f.Testbed.Faults.kind = kind) !injected with
           | Some f ->
             Testbed.Faults.repair faults ~now:0.0 f;
             injected := List.filter (fun g -> g != f) !injected
           | None -> ());
          true
        | Refresh ->
          let before = rows memo in
          let changed = Oar.Property.refresh_from_refapi memo ctx in
          Oar.Manager.refresh_properties oar;
          let fresh = Oar.Property.create () in
          ignore (Oar.Property.refresh_from_refapi fresh ctx);
          let props = Oar.Manager.properties oar in
          changed = (before <> rows memo)
          && Oar.Property.hosts props = Oar.Property.hosts fresh
          && rows props = rows fresh
          && rows memo = rows fresh
          && List.for_all
               (fun e -> Oar.Manager.matching_hosts oar e = matching fresh e)
               exprs
      in
      List.for_all step (ops @ [ Refresh ]))

let test_same_row_document () =
  let instance = Testbed.Instance.build ~seed:7L () in
  let ctx = Testbed.Faults.context instance.Testbed.Instance.faults in
  let refapi = ctx.Testbed.Faults.refapi in
  let props = Oar.Property.create () in
  checkb "first refresh fills the rows" true (Oar.Property.refresh_from_refapi props ctx);
  checkb "nothing published: no change" false (Oar.Property.refresh_from_refapi props ctx);
  let host = "orion-1.lyon" in
  let doc () = Option.get (Testbed.Refapi.get refapi host) in
  let old_doc = doc () in
  Testbed.Refapi.publish_node refapi (Testbed.Instance.node instance host);
  checkb "document replaced" true (doc () != old_doc);
  checkb "same row derived: no change" false (Oar.Property.refresh_from_refapi props ctx);
  Hashtbl.replace ctx.Testbed.Faults.flags ("oar_desync:" ^ host) "x";
  checkb "desync flag flips gpu" true (Oar.Property.refresh_from_refapi props ctx);
  Alcotest.(check (option string)) "gpu flipped" (Some "NO") (Oar.Property.get props ~host "gpu");
  Hashtbl.remove ctx.Testbed.Faults.flags ("oar_desync:" ^ host);
  checkb "flag cleared flips it back" true (Oar.Property.refresh_from_refapi props ctx);
  Alcotest.(check (option string)) "gpu restored" (Some "YES") (Oar.Property.get props ~host "gpu")

(* ---- Allocation ------------------------------------------------------------ *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_words msg expected words =
  Alcotest.(check (float 0.0)) msg expected words

let test_alloc_host_probes () =
  let instance = Testbed.Instance.build ~seed:7L () in
  let oar = Oar.Manager.create instance in
  let filter = Oar.Expr.parse_exn "cluster='graphene'" in
  ignore (Oar.Manager.free_at_least oar filter 3);
  check_words "warm free_at_least, early exit" 0.0
    (minor_words (fun () -> ignore (Sys.opaque_identity (Oar.Manager.free_at_least oar filter 3))));
  check_words "warm free_at_least, whole pool" 0.0
    (minor_words (fun () ->
         ignore (Sys.opaque_identity (Oar.Manager.free_at_least oar filter 10_000))));
  let g = Oar.Gantt.create () in
  Oar.Gantt.reserve g ~host:"h" ~start:10.0 ~stop:20.0 ~job:1;
  Oar.Gantt.reserve g ~host:"h" ~start:30.0 ~stop:40.0 ~job:2;
  check_words "is_free over intervals" 0.0
    (minor_words (fun () ->
         ignore (Sys.opaque_identity (Oar.Gantt.is_free g ~host:"h" ~start:20.0 ~stop:30.0))));
  check_words "is_free on an unknown host" 0.0
    (minor_words (fun () ->
         ignore (Sys.opaque_identity (Oar.Gantt.is_free g ~host:"x" ~start:20.0 ~stop:30.0))))

let test_alloc_equal_diff () =
  let instance = Testbed.Instance.build ~seed:7L () in
  let doc = Option.get (Testbed.Refapi.get instance.Testbed.Instance.refapi "graphene-1.nancy") in
  (* Structurally equal, physically distinct. *)
  let copy = of_string_exn (to_string doc) in
  checkb "distinct copy" true (doc != copy);
  check_words "diff of equal documents" 0.0
    (minor_words (fun () -> ignore (Sys.opaque_identity (diff doc copy))))

let test_alloc_noop_refresh () =
  let instance = Testbed.Instance.build ~seed:7L () in
  let oar = Oar.Manager.create instance in
  Oar.Manager.refresh_properties oar;
  let hosts = List.length (Oar.Property.hosts (Oar.Manager.properties oar)) in
  let words = minor_words (fun () -> Oar.Manager.refresh_properties oar) in
  checkb
    (Printf.sprintf "no-op refresh: %.0f words for %d hosts" words hosts)
    true
    (words < float_of_int hosts)

(* ---- Gantt boundaries --------------------------------------------------------- *)

let test_gantt_boundaries () =
  let g = Oar.Gantt.create () in
  Oar.Gantt.reserve g ~host:"h" ~start:10.0 ~stop:20.0 ~job:1;
  checkb "touching before" true (Oar.Gantt.is_free g ~host:"h" ~start:0.0 ~stop:10.0);
  checkb "touching after" true (Oar.Gantt.is_free g ~host:"h" ~start:20.0 ~stop:30.0);
  checkb "straddling start" false (Oar.Gantt.is_free g ~host:"h" ~start:5.0 ~stop:10.5);
  checkb "straddling stop" false (Oar.Gantt.is_free g ~host:"h" ~start:19.5 ~stop:25.0);
  checkb "inside" false (Oar.Gantt.is_free g ~host:"h" ~start:12.0 ~stop:13.0);
  checkb "covering" false (Oar.Gantt.is_free g ~host:"h" ~start:0.0 ~stop:30.0);
  checkb "free_at the start" false (Oar.Gantt.free_at g ~host:"h" 10.0);
  checkb "free_at the stop" true (Oar.Gantt.free_at g ~host:"h" 20.0);
  checkb "unknown host is_free" true (Oar.Gantt.is_free g ~host:"x" ~start:10.0 ~stop:20.0);
  checkb "unknown host free_at" true (Oar.Gantt.free_at g ~host:"x" 15.0)

(* Integer coordinates, so that probes often touch reservations. *)
let prop_gantt_is_free_overlaps =
  QCheck.Test.make ~name:"gantt is_free and free_at agree with overlaps" ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 8) (pair (int_bound 50) (int_range 1 10)))
        (pair (int_bound 60) (int_range 1 10)))
    (fun (intervals, (start, len)) ->
      let g = Oar.Gantt.create () in
      List.iteri
        (fun i (s, l) ->
          let s = float_of_int s in
          try Oar.Gantt.reserve g ~host:"h" ~start:s ~stop:(s +. float_of_int l) ~job:i
          with Invalid_argument _ -> ())
        intervals;
      let free_by_overlaps start stop =
        List.for_all
          (fun (s, e, _) -> not (start < e && s < stop))
          (Oar.Gantt.reservations g ~host:"h")
      in
      let start = float_of_int start in
      let stop = start +. float_of_int len in
      Oar.Gantt.is_free g ~host:"h" ~start ~stop = free_by_overlaps start stop
      && Oar.Gantt.free_at g ~host:"h" start = free_by_overlaps start (start +. 1e-9))

let () =
  Alcotest.run "incremental"
    [
      ( "json-diff",
        [ Alcotest.test_case "cases" `Quick test_diff_cases; qc prop_diff_matches_oracle ] );
      ( "property-memo",
        [ Alcotest.test_case "same-row document and flag toggles" `Quick test_same_row_document;
          qc prop_memo_never_stale ] );
      ( "allocation",
        [ Alcotest.test_case "host probes" `Quick test_alloc_host_probes;
          Alcotest.test_case "diff of equal documents" `Quick test_alloc_equal_diff;
          Alcotest.test_case "no-op refresh" `Quick test_alloc_noop_refresh ] );
      ( "gantt-boundaries",
        [ Alcotest.test_case "touching and unknown" `Quick test_gantt_boundaries;
          qc prop_gantt_is_free_overlaps ] );
    ]
