(* One measured simulation of a repo-benchmark workload, printed as one
   JSON line on stdout.  perfbench/run.py runs it once per sample (a
   fresh process each time, so the heap and GC state never carry over),
   takes medians and checks the fingerprints.

     bench.exe measure   WORKLOAD SEED SETUPS   untraced run
     bench.exe trace     WORKLOAD SEED SETUPS   untraced run, then traced ones
     bench.exe reference WORKLOAD SEED          canonical-path fingerprint only

   The untraced run times what a user pays for -- prepare, drive,
   finalize, report serialization -- with nothing hooked into the
   engine, then prepares SETUPS more times to sample the set-up cost.
   For a campaign, the traced run drives a second copy of the same
   simulation step by step through [Engine.next_time]/[Engine.step],
   with an observer that learns each executed event's label; each
   step's time and minor allocation are charged to that label.  For the
   federation it times the Parallel and one-shard Sequential drivers.
   Everything is timed from outside, around calls into the libraries'
   public functions. *)

module J = Simkit.Json
module C = Framework.Campaign
module F = Framework.Federation

let clock () = Monotonic_clock.now ()
let seconds t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* {2 Spans}

   Kept in memory as (name, start, end, parent) and printed with the
   result; starts and ends are nanoseconds since the process origin. *)

let origin = clock ()
let spans = ref []

let timed ~parent name f =
  let start = clock () in
  let result = f () in
  let stop = clock () in
  spans := (name, parent, start, stop) :: !spans;
  (result, seconds start stop)

let spans_json () =
  J.List
    (List.rev_map
       (fun (name, parent, start, stop) ->
         J.Obj
           [ ("name", J.String name);
             ("parent", J.String parent);
             ("start_ns", J.Int (Int64.to_int (Int64.sub start origin)));
             ("end_ns", J.Int (Int64.to_int (Int64.sub stop origin))) ])
       !spans)

(* {2 Workloads} *)

type workload = Campaign_2m | Extensions_1m | Federation_4x2

let workload_of_string = function
  | "campaign-2m" -> Campaign_2m
  | "extensions-1m" -> Extensions_1m
  | "federation-4x2" -> Federation_4x2
  | s -> invalid_arg ("unknown workload " ^ s)

let day = Simkit.Calendar.day

(* The union of the resilient, health-drill, triage and serve presets of
   [Lint.presets], with their 90-day drill calendar compressed 3x so
   every drill lands inside the month.  [audit] stays off: the traced
   run's observer would replace the auditor's in the engine's single
   observer slot and change the report. *)
let extensions_config seed =
  let at d = d *. day /. 3.0 in
  {
    C.default_config with
    C.months = 1;
    seed;
    resilience = true;
    infra_faults =
      [ (at 20.0, Testbed.Faults.Ci_outage);
        (at 40.0, Testbed.Faults.Serve_crash);
        (at 45.0, Testbed.Faults.Build_hang);
        (at 70.0, Testbed.Faults.Queue_loss) ];
    infra_fault_duration = 6.0 *. 3600.0;
    health = Some Framework.Health.default_config;
    health_faults =
      [ (at 30.0, Testbed.Faults.Site_outage, Testbed.Faults.Site "nancy");
        (at 60.0, Testbed.Faults.Pdu_failure, Testbed.Faults.Cluster "graphene") ];
    triage = Some Framework.Triage.default_config;
    serve =
      Some
        { Framework.Serve.default_config with
          Framework.Serve.workload_seed = Int64.logxor seed 0x5E12E5EEDL };
  }

let campaign_config workload seed =
  match workload with
  | Campaign_2m -> { C.default_config with C.months = 2; seed }
  | Extensions_1m -> extensions_config seed
  | Federation_4x2 -> invalid_arg "campaign_config"

let federation_config seed ~shards ~driver =
  {
    F.default_config with
    F.testbeds = 4;
    shards;
    seed;
    driver;
    base = { C.default_config with C.months = 1 };
    ranges = Testbed.Fleet.reference_ranges;
  }

(* {2 Fingerprints} *)

let digest text = Digest.to_hex (Digest.string text)

(* The full per-member serialization with the fields that legitimately
   vary between drivers (shard count, driver) normalized away. *)
let federation_text report =
  let normalized =
    { report with
      F.fed_cfg = { report.F.fed_cfg with F.shards = 1; driver = F.Sequential } }
  in
  J.to_string (F.report_to_json ~full:true normalized)

(* {2 Measurements} *)

let gc_json (g0 : Gc.stat) (g1 : Gc.stat) =
  J.Obj
    [ ("minor_collections", J.Int (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("major_collections", J.Int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("promoted_words", J.Float (g1.Gc.promoted_words -. g0.Gc.promoted_words)) ]

(* Simulated headline figures: model fidelity, not speed. *)
let fidelity_json (r : C.report) =
  match (r.C.monthly, List.rev r.C.monthly) with
  | first :: _, last :: _ ->
    J.Obj
      [ ("bugs_filed", J.Int r.C.bugs_filed);
        ("bugs_fixed", J.Int r.C.bugs_fixed);
        ("first_month_success", J.Float first.C.success_ratio);
        ("last_month_success", J.Float last.C.success_ratio) ]
  | _ -> J.Null

let serve_json (r : C.report) =
  match r.C.serve with
  | None -> []
  | Some s ->
    let module S = Framework.Serve in
    [ ( "serve",
        J.Obj
          [ ("reads", J.Int s.S.reads);
            ("shed", J.Int s.S.shed);
            ("staleness_p99_s", J.Float s.S.staleness_p99);
            ("hit_ratio", J.Float s.S.hit_ratio);
            ("renders", J.Int s.S.renders);
            ("queued_peak", J.Int s.S.queued_peak) ] ) ]

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

let setup_samples n prepare =
  List.init n (fun _ ->
      let start = clock () in
      ignore (Sys.opaque_identity (prepare ()));
      J.Float (seconds start (clock ())))

let campaign_untraced ~parent cfg =
  let timed name f = timed ~parent name f in
  let cpu0 = cpu_seconds () in
  let start = clock () in
  let sim, prepare_s = timed "campaign.prepare" (fun () -> C.prepare cfg) in
  let engine = C.sim_engine sim in
  let horizon = C.sim_horizon sim in
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let (), drive_s =
    timed "campaign.drive" (fun () -> Simkit.Engine.run_until engine horizon)
  in
  let words = Gc.minor_words () -. w0 in
  let g1 = Gc.quick_stat () in
  let report, finalize_s = timed "campaign.finalize" (fun () -> C.finalize sim) in
  let text, render_s =
    timed "report.to_json" (fun () -> Framework.Report.to_string report)
  in
  let wall_s = seconds start (clock ()) in
  let cpu_s = cpu_seconds () -. cpu0 in
  [ ("fingerprint", J.String (digest text));
    ("events", J.Int (Simkit.Engine.events_executed engine));
    ("prepare_s", J.Float prepare_s);
    ("drive_s", J.Float drive_s);
    ("finalize_s", J.Float finalize_s);
    ("render_s", J.Float render_s);
    ("wall_s", J.Float wall_s);
    ("cpu_s", J.Float cpu_s);
    ("minor_words", J.Float words);
    ("top_heap_words", J.Int (top_heap_words ()));
    ("gc", gc_json g0 g1);
    ("fidelity", fidelity_json report) ]
  @ serve_json report

(* Per-label ledger of the traced drive.  Events whose source passed no
   label are charged to "unlabelled". *)
let max_labels = 64

type ledger = {
  names : string array;
  events : int array;
  ns : int array;
  words : float array;
  mutable used : int;
}

let label_index ledger label =
  let name = Option.value label ~default:"unlabelled" in
  let rec find i =
    if i = ledger.used then begin
      if i = max_labels then failwith "too many event labels";
      ledger.names.(i) <- name;
      ledger.used <- i + 1;
      i
    end
    else if String.equal ledger.names.(i) name then i
    else find (i + 1)
  in
  find 0

let percentile_us sorted n p =
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    float_of_int sorted.(max 0 (min (n - 1) rank)) *. 1e-3

(* Steps the engine to [horizon] exactly as [run_until] would, timing
   every step.  Between the two clock reads only [Engine.step] runs, so
   the benchmark's own work (the [next_time] peek, the ledger update)
   lands in the loop overhead, not in any label. *)
let drive_traced engine horizon =
  let ledger =
    {
      names = Array.make max_labels "";
      events = Array.make max_labels 0;
      ns = Array.make max_labels 0;
      words = Array.make max_labels 0.0;
      used = 0;
    }
  in
  let executed = ref false in
  let fired = ref None in
  Simkit.Engine.set_observer engine
    (Some
       (fun ~time:_ ~label ->
         executed := true;
         fired := label));
  let latencies = ref (Array.make 65536 0) in
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match Simkit.Engine.next_time engine with
    | Some next when next <= horizon ->
      executed := false;
      let w0 = Gc.minor_words () in
      let t0 = clock () in
      ignore (Simkit.Engine.step engine);
      let t1 = clock () in
      let w1 = Gc.minor_words () in
      if !executed then begin
        let i = label_index ledger !fired in
        let dt = Int64.to_int (Int64.sub t1 t0) in
        ledger.events.(i) <- ledger.events.(i) + 1;
        ledger.ns.(i) <- ledger.ns.(i) + dt;
        ledger.words.(i) <- ledger.words.(i) +. (w1 -. w0);
        if !n = Array.length !latencies then begin
          let grown = Array.make (2 * !n) 0 in
          Array.blit !latencies 0 grown 0 !n;
          latencies := grown
        end;
        !latencies.(!n) <- dt;
        incr n
      end
    | _ -> continue := false
  done;
  Simkit.Engine.set_observer engine None;
  Simkit.Engine.run_until engine horizon;
  let sorted = Array.sub !latencies 0 !n in
  Array.sort compare sorted;
  let labels =
    List.init ledger.used (fun i ->
        J.Obj
          [ ("name", J.String ledger.names.(i));
            ("events", J.Int ledger.events.(i));
            ("self_s", J.Float (float_of_int ledger.ns.(i) *. 1e-9));
            ("words", J.Float ledger.words.(i)) ])
  in
  [ ("labels", J.List labels);
    ("step_p50_us", J.Float (percentile_us sorted !n 50.0));
    ("step_p99_us", J.Float (percentile_us sorted !n 99.0)) ]

let campaign_traced cfg =
  let timed name f = timed ~parent:"traced" name f in
  let sim, prepare_s = timed "campaign.prepare" (fun () -> C.prepare cfg) in
  let engine = C.sim_engine sim in
  let ledger, drive_s =
    timed "campaign.drive" (fun () -> drive_traced engine (C.sim_horizon sim))
  in
  let report, finalize_s = timed "campaign.finalize" (fun () -> C.finalize sim) in
  let text, render_s =
    timed "report.to_json" (fun () -> Framework.Report.to_string report)
  in
  J.Obj
    ([ ("fingerprint", J.String (digest text));
       ("prepare_s", J.Float prepare_s);
       ("drive_s", J.Float drive_s);
       ("finalize_s", J.Float finalize_s);
       ("render_s", J.Float render_s) ]
    @ ledger)

let federation_run ~parent seed ~shards ~driver =
  let cfg = federation_config seed ~shards ~driver in
  let report, run_s = timed ~parent "federation.run" (fun () -> F.run cfg) in
  let text, render_s =
    timed ~parent "federation.to_json" (fun () -> federation_text report)
  in
  (report, run_s, render_s, digest text)

(* The end-to-end run uses the Sequential driver on the workload's two
   shards: the Parallel driver's wall time follows host steal (both
   domains must reach every stop-the-world minor collection), too
   unsteady on a shared host to gate on, so it is timed in the traced
   run instead. *)
let federation_untraced seed =
  let cpu0 = cpu_seconds () in
  let g0 = Gc.quick_stat () in
  let report, run_s, render_s, fingerprint =
    federation_run ~parent:"untraced" seed ~shards:2 ~driver:F.Sequential
  in
  let g1 = Gc.quick_stat () in
  let cpu_s = cpu_seconds () -. cpu0 in
  [ ("fingerprint", J.String fingerprint);
    ("events", J.Int report.F.events_total);
    ("drive_s", J.Float run_s);
    ("render_s", J.Float render_s);
    ("wall_s", J.Float (run_s +. render_s));
    ("cpu_s", J.Float cpu_s);
    ("minor_words", J.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
    ("top_heap_words", J.Int (top_heap_words ()));
    ("gc", gc_json g0 g1);
    ("barriers", J.Int report.F.coordination.F.barriers) ]

let federation_traced seed =
  let timed_run name ~shards ~driver =
    let _, run_s, _, fingerprint = federation_run ~parent:name seed ~shards ~driver in
    ( name,
      J.Obj [ ("wall_s", J.Float run_s); ("fingerprint", J.String fingerprint) ] )
  in
  J.Obj
    [ timed_run "par_k2" ~shards:2 ~driver:F.Parallel;
      timed_run "seq_k1" ~shards:1 ~driver:F.Sequential ]

(* Member preparation only: what [F.run] does before its first window. *)
let federation_prepare seed () =
  let cfg = federation_config seed ~shards:2 ~driver:F.Sequential in
  List.map (fun spec -> C.prepare (F.member_campaign cfg spec)) (F.synthesize cfg)

let measure ~trace workload seed setups =
  let fields =
    match workload with
    | Federation_4x2 ->
      let untraced = federation_untraced seed in
      let setup = setup_samples setups (federation_prepare seed) in
      let traced = if trace then [ ("traced", federation_traced seed) ] else [] in
      untraced @ (("setup_s", J.List setup) :: traced)
    | Campaign_2m | Extensions_1m ->
      let cfg = campaign_config workload seed in
      let untraced = campaign_untraced ~parent:"untraced" cfg in
      let setup = setup_samples setups (fun () -> C.prepare cfg) in
      (* The first simulation in a process also pays for growing the
         heap, so the tracing overhead is measured against a second
         untraced run made after the traced one. *)
      let traced =
        if trace then
          [ ("traced", campaign_traced cfg);
            ("rerun", J.Obj (campaign_untraced ~parent:"rerun" cfg)) ]
        else []
      in
      untraced @ (("setup_s", J.List setup) :: traced)
  in
  J.Obj (fields @ [ ("spans", spans_json ()) ])

(* The libraries' own entry points, untimed: the fingerprint a run is
   checked against when no recorded one exists for its seed. *)
let reference workload seed =
  let fingerprint =
    match workload with
    | Federation_4x2 ->
      let cfg = federation_config seed ~shards:1 ~driver:F.Sequential in
      digest (federation_text (F.run cfg))
    | Campaign_2m | Extensions_1m ->
      digest (Framework.Report.to_string (C.run (campaign_config workload seed)))
  in
  J.Obj [ ("fingerprint", J.String fingerprint) ]

let () =
  let usage () =
    prerr_endline
      "usage: bench.exe (measure|trace) WORKLOAD SEED SETUPS | reference WORKLOAD SEED";
    exit 2
  in
  let result =
    match Array.to_list Sys.argv with
    | [ _; ("measure" | "trace") as mode; w; seed; setups ] ->
      measure ~trace:(mode = "trace") (workload_of_string w) (Int64.of_string seed)
        (int_of_string setups)
    | [ _; "reference"; w; seed ] ->
      reference (workload_of_string w) (Int64.of_string seed)
    | _ -> usage ()
  in
  print_endline (J.to_string result)
