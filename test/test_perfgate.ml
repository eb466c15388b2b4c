(* The CI perf gate: must fail on a real regression, pass on run-to-run
   jitter within the tolerance, and reject unreadable benchmark
   documents rather than waving them through. *)

module P = Framework.Perfgate

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec scan i = i + n <= m && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let row ?(better = P.Lower) ?(tolerance_pct = 20.0) ?floor metric value =
  { P.metric; value; better; tolerance_pct; floor }

let p95 ?tolerance_pct value = row ?tolerance_pct "step_latency_us.p95" value

let verdict baseline current = P.check ~baseline:[ baseline ] ~current:[ current ]

let test_pass_within_threshold () =
  checkb "15% regression passes at 20% tolerance" true (verdict (p95 100.0) (p95 115.0)).P.ok

let test_exact_limit_passes () =
  checkb "exactly the limit still passes" true (verdict (p95 100.0) (p95 120.0)).P.ok

let test_fail_beyond_threshold () =
  (* An injected >=25% slow-down must break CI. *)
  let v = verdict (p95 100.0) (p95 125.0) in
  checkb "25% regression fails" false v.P.ok;
  checkb "verdict says FAIL and names the metric" true
    (List.mem "perfgate: FAIL (step_latency_us.p95)" v.P.lines)

let test_throughput_does_not_gate () =
  (* A row only the current run carries is reported, not gated. *)
  let v =
    P.check ~baseline:[ p95 100.0 ]
      ~current:[ p95 100.0; row ~better:P.Higher "events_per_s" 10000.0 ]
  in
  checkb "extra row is informational" true v.P.ok;
  checkb "extra row is reported" true
    (List.exists (fun l -> contains l "events_per_s" && contains l "not gated") v.P.lines)

let test_custom_threshold () =
  (* The tolerance is the baseline row's, not the current run's. *)
  checkb "15% regression fails at a 10% baseline tolerance" false
    (verdict (p95 ~tolerance_pct:10.0 100.0) (p95 ~tolerance_pct:50.0 115.0)).P.ok

let test_missing_row_fails () =
  let v = P.check ~baseline:[ p95 100.0 ] ~current:[ row "other" 1.0 ] in
  checkb "baseline row missing from current fails" false v.P.ok;
  checkb "reported as missing" true (List.exists (fun l -> contains l "MISSING") v.P.lines)

(* ---- documents ---------------------------------------------------------------- *)

let engine_doc =
  {|{
  "scenario": "engine",
  "events_per_s": 48211.9,
  "step_latency_us": { "p50": 2.1, "p95": 64.8, "p99": 416.0, "max": 6837.8 },
  "gates": [
    { "metric": "step_latency_us.p95", "value": 64.8, "better": "lower", "tolerance_pct": 20 }
  ]
}|}

let load_ok text =
  match P.load text with Ok rows -> rows | Error e -> Alcotest.failf "load failed: %s" e

let test_parse_bench_document () =
  match load_ok engine_doc with
  | [ r ] ->
    Alcotest.(check string) "metric" "step_latency_us.p95" r.P.metric;
    checkf "value" 64.8 r.P.value;
    checkb "lower is better" true (r.P.better = P.Lower);
    checkf "integer tolerance accepted" 20.0 r.P.tolerance_pct;
    checkb "no floor" true (r.P.floor = None)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_parse_rejects_garbage () =
  checkb "syntax error rejected" true (Result.is_error (P.load "not json"));
  checkb "document without gates rejected" true
    (Result.is_error (P.load {|{"events_per_s": 1.0, "step_latency_us": {"p95": 1.0}}|}));
  checkb "empty gates rejected" true (Result.is_error (P.load {|{"gates": []}|}))

let test_round_trip () =
  let rows = [ p95 64.8; row ~better:P.Higher "speedup" 3.5; row ~floor:0.25 "lint.wall_s" 0.01 ] in
  let text = Simkit.Json.to_string ~indent:2 (Simkit.Json.Obj [ ("gates", P.rows_to_json rows) ]) in
  checkb "rows_to_json then load is the identity" true (load_ok text = rows)

(* Each malformed input must come back as [Error] naming the field. *)
let rejections =
  let doc rows = Printf.sprintf {|{"scenario": "x", "gates": [%s]}|} rows in
  let good = {|{"metric": "m", "value": 1.0, "better": "lower", "tolerance_pct": 20.0}|} in
  [ ("not JSON", "{\"gates\": [", "not JSON");
    ("escape that is not hex", {|{"gates": "\uZZZZ"}|}, "not JSON");
    ("no gates array", {|{"scenario": "x"}|}, "\"gates\"");
    ("gates not an array", {|{"gates": {}}|}, "\"gates\"");
    ("missing metric", doc {|{"value": 1.0, "better": "lower", "tolerance_pct": 20.0}|},
     "gates[0].metric");
    ("missing value", doc {|{"metric": "m", "better": "lower", "tolerance_pct": 20.0}|},
     "gates[0].value");
    ("unknown better",
     doc {|{"metric": "m", "value": 1.0, "better": "sideways", "tolerance_pct": 20.0}|},
     "gates[0].better");
    ("infinite value",
     doc {|{"metric": "m", "value": 1e999, "better": "lower", "tolerance_pct": 20.0}|},
     "gates[0].value");
    ("infinite floor",
     doc {|{"metric": "m", "value": 1.0, "better": "lower", "tolerance_pct": 20.0, "floor": -1e999}|},
     "gates[0].floor");
    ("negative tolerance",
     doc {|{"metric": "m", "value": 1.0, "better": "lower", "tolerance_pct": -5.0}|},
     "gates[0].tolerance_pct");
    ("non-numeric tolerance",
     doc {|{"metric": "m", "value": 1.0, "better": "lower", "tolerance_pct": "20"}|},
     "gates[0].tolerance_pct");
    ("duplicate metric", doc (good ^ ", " ^ good), "gates[1].metric") ]

let test_rejections () =
  List.iter
    (fun (name, text, field) ->
      match P.load text with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error e -> checkb (Printf.sprintf "%s names %s (%s)" name field e) true (contains e field))
    rejections

(* A loaded document always satisfies the row invariants. *)
let loads_safely text =
  match P.load text with
  | Error _ -> true
  | Ok rows ->
    let metrics = List.map (fun r -> r.P.metric) rows in
    rows <> []
    && List.length (List.sort_uniq compare metrics) = List.length rows
    && List.for_all
         (fun r ->
           Float.is_finite r.P.value && Float.is_finite r.P.tolerance_pct
           && r.P.tolerance_pct >= 0.0
           && Option.fold ~none:true ~some:Float.is_finite r.P.floor)
         rows

let prop_arbitrary_strings =
  QCheck.Test.make ~count:500 ~name:"load never raises on arbitrary text" QCheck.string
    loads_safely

let valid_doc =
  {|{"scenario": "bench", "gates": [{"metric": "a", "value": 1.5, "better": "lower", "tolerance_pct": 20.0}, {"metric": "b", "value": 2, "better": "higher", "tolerance_pct": 20, "floor": 1.0}]}|}

(* Edits of the valid document: replace, insert or delete at a position,
   with either an arbitrary byte or a JSON-significant token. *)
let edit_gen =
  let open QCheck.Gen in
  let token =
    oneof
      [ map (String.make 1) char;
        oneofl
          [ "{"; "}"; "["; "]"; "\""; ":"; ","; "-"; "."; "e"; "0"; "1e999"; "null";
            "true"; "\"lower\""; "\"higher\""; "\\u"; "\\uZZZZ"; "\"gates\"";
            "\"metric\""; "\"value\""; "-1"; "NaN" ] ]
  in
  triple (int_bound 2) nat token

let mutate text edits =
  List.fold_left
    (fun t (op, pos, tok) ->
      let n = String.length t in
      let i = pos mod (n + 1) in
      let keep = if op = 1 || i = n then i else i + 1 in
      let cut = if op = 2 then "" else tok in
      if op = 1 then String.sub t 0 i ^ tok ^ String.sub t i (n - i)
      else String.sub t 0 i ^ cut ^ String.sub t keep (n - keep))
    text edits

let prop_mutated_documents =
  QCheck.Test.make ~count:1000 ~name:"load never raises on mutated documents"
    (QCheck.make
       ~print:(fun edits -> mutate valid_doc edits)
       QCheck.Gen.(list_size (int_range 1 4) edit_gen))
    (fun edits -> loads_safely (mutate valid_doc edits))

(* ---- migrated boundaries ------------------------------------------------------- *)

(* The per-bench formulas the gate schema replaced, written out as the
   oracle: a migrated row must agree with them at its limit and just
   past it. *)
let old_p95 ~base ~cur = cur <= base *. (1.0 +. (20.0 /. 100.0))
let old_staleness ~base ~cur =
  cur <= if base = 0.0 then 0.0 else base *. (1.0 +. (20.0 /. 100.0))
let old_lint ~base ~cur = cur <= Float.max 0.25 (base *. (1.0 +. (20.0 /. 100.0)))
let old_speedup ~base ~cur = cur >= base *. (1.0 -. (20.0 /. 100.0))

(* name, baseline row (the checked-in baselines' numbers), oracle, the
   limit the old gate printed, and a value just past the limit. *)
let boundaries =
  [ ("engine p95", p95 64.849853515625, old_p95, 77.8198, Float.succ);
    ("serve p99", row "staleness_s.p99" 417.16585851460695, old_staleness, 500.599, Float.succ);
    ("serve zero baseline", row "staleness_s.p99" 0.0, old_staleness, 0.0, Float.succ);
    ("federation speedup", row ~better:P.Higher "speedup" 3.6350941837482895, old_speedup,
     2.90808, Float.pred);
    ("lint floor", row ~floor:0.25 "lint.wall_s" 0.011960983276367188, old_lint, 0.25, Float.succ);
    ("lint above floor", row ~floor:0.25 "lint.wall_s" 0.5, old_lint, 0.6, Float.succ) ]

let test_boundaries () =
  List.iter
    (fun (name, (b : P.row), oracle, printed, past) ->
      let l = P.limit b in
      Alcotest.(check (float 1e-4)) (name ^ ": limit") printed l;
      List.iter
        (fun (where, cur, expected) ->
          let base = b.P.value in
          checkb (Printf.sprintf "%s: old verdict %s" name where) expected (oracle ~base ~cur);
          checkb (Printf.sprintf "%s: verdict %s" name where) expected
            (verdict b { b with P.value = cur }).P.ok)
        [ ("at the limit", l, true); ("just past it", past l, false) ])
    boundaries;
  checkb "serve zero baseline: 1 ns of staleness fails" false
    (verdict (row "staleness_s.p99" 0.0) (row "staleness_s.p99" 1e-9)).P.ok

(* ---- checked-in baselines ----------------------------------------------------- *)

(* Each checked-in baseline must load, pass against itself, and carry
   gate values equal to the figures they are copied from. *)
let baselines =
  [ ("BENCH_engine.json", [ "step_latency_us"; "p95" ]);
    ("BENCH_serve.json", [ "staleness_s"; "p99" ]);
    ("BENCH_federation.json", [ "speedup" ]);
    ("BENCH_lint.json", [ "lint"; "wall_s" ]) ]

let test_checked_in_baselines () =
  List.iter
    (fun (file, path) ->
      let text = In_channel.with_open_bin (Filename.concat ".." file) In_channel.input_all in
      let rows = load_ok text in
      checkb (file ^ " passes against itself") true (P.check ~baseline:rows ~current:rows).P.ok;
      let field =
        List.fold_left
          (fun json key -> Option.bind json (Simkit.Json.member key))
          (Some (Simkit.Json.of_string_exn text)) path
      in
      match (rows, field) with
      | [ r ], Some (Simkit.Json.Float f) -> checkf (file ^ " gate copies its field") f r.P.value
      | _ -> Alcotest.failf "%s: expected one gate row and a numeric field" file)
    baselines

(* ---- lint gate ------------------------------------------------------------------ *)

let lint wall_s = row ~floor:0.25 "lint.wall_s" wall_s

let test_lint_floor_absorbs_ms_noise () =
  (* A 4x regression on a millisecond-scale wall stays under the
     absolute floor and must not flap the gate. *)
  checkb "under the floor passes" true (verdict (lint 0.05) (lint 0.2)).P.ok

let test_lint_fails_beyond_floor_and_threshold () =
  checkb "beyond floor and threshold fails" false (verdict (lint 0.05) (lint 0.26)).P.ok

let test_lint_relative_threshold_above_floor () =
  (* Once the baseline itself clears the floor, the relative allowance
     takes over: +15% passes, +25% fails. *)
  checkb "+15%% passes" true (verdict (lint 1.0) (lint 1.15)).P.ok;
  checkb "+25%% fails" false (verdict (lint 1.0) (lint 1.25)).P.ok

let lint_doc ~diagnostics ~wall_s =
  Printf.sprintf
    {|{"lint": {"configurations": 751, "presets": 7, "wall_s": %g, "diagnostics": %d},
       "audit": {"campaigns": 2},
       "gates": [{"metric": "lint.wall_s", "value": %g, "better": "lower",
                  "tolerance_pct": 20.0, "floor": 0.25}]}|}
    wall_s diagnostics wall_s

let test_lint_diagnostics_do_not_gate () =
  let baseline = load_ok (lint_doc ~diagnostics:0 ~wall_s:0.042) in
  let current = load_ok (lint_doc ~diagnostics:7 ~wall_s:0.042) in
  checkb "diagnostic count is informational" true (P.check ~baseline ~current).P.ok

let test_lint_parse_bench_document () =
  match load_ok (lint_doc ~diagnostics:0 ~wall_s:0.042) with
  | [ r ] ->
    checkf "wall_s" 0.042 r.P.value;
    checkb "floor" true (r.P.floor = Some 0.25)
  | _ -> Alcotest.fail "expected one row"

let test_lint_parse_rejects_garbage () =
  checkb "bare lint document rejected" true (Result.is_error (P.load {|{"lint": {"wall_s": 1.0}}|}));
  checkb "row without value rejected" true
    (Result.is_error
       (P.load {|{"gates": [{"metric": "lint.wall_s", "better": "lower", "tolerance_pct": 20}]}|}))

let () =
  Alcotest.run "perfgate"
    [
      ( "gate",
        [ Alcotest.test_case "pass within threshold" `Quick test_pass_within_threshold;
          Alcotest.test_case "exact limit passes" `Quick test_exact_limit_passes;
          Alcotest.test_case "fail beyond threshold" `Quick test_fail_beyond_threshold;
          Alcotest.test_case "throughput informational" `Quick
            test_throughput_does_not_gate;
          Alcotest.test_case "custom threshold" `Quick test_custom_threshold;
          Alcotest.test_case "missing row fails" `Quick test_missing_row_fails ] );
      ( "parse",
        [ Alcotest.test_case "bench document" `Quick test_parse_bench_document;
          Alcotest.test_case "rejects garbage" `Quick test_parse_rejects_garbage;
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "errors name the field" `Quick test_rejections;
          Qc.to_alcotest prop_arbitrary_strings;
          Qc.to_alcotest prop_mutated_documents ] );
      ( "boundaries",
        [ Alcotest.test_case "migrated gates keep their verdicts" `Quick test_boundaries;
          Alcotest.test_case "checked-in baselines" `Quick test_checked_in_baselines ] );
      ( "lint gate",
        [ Alcotest.test_case "floor absorbs ms noise" `Quick
            test_lint_floor_absorbs_ms_noise;
          Alcotest.test_case "fails beyond floor and threshold" `Quick
            test_lint_fails_beyond_floor_and_threshold;
          Alcotest.test_case "relative threshold above floor" `Quick
            test_lint_relative_threshold_above_floor;
          Alcotest.test_case "diagnostics informational" `Quick
            test_lint_diagnostics_do_not_gate;
          Alcotest.test_case "bench document" `Quick test_lint_parse_bench_document;
          Alcotest.test_case "rejects garbage" `Quick
            test_lint_parse_rejects_garbage ] );
    ]
