(* Self-tests of the benchmark: the shim and the speed probe are
   transparent, the on-time accounting counts the right transactions,
   and BENCHMARK.json agrees with the metric catalog. *)

open Perfbench

(* ---- shim transparency ---------------------------------------------- *)

(* The reference run only remembers the engine it was given, so its
   event count can be read; everything else is the adapter itself. *)
let capture engine (module P : Protocol.NODE) : (module Protocol.NODE) =
  (module struct
    include P

    let make_net e =
      engine := Some e;
      P.make_net e
  end)

let run_small p =
  Harness.Scenario.run ~seed:3L p ~n:4 ~load:(Harness.Scenario.Closed 2)
    ~duration_us:8_000_000 ()

let shim_is_transparent (name, p) =
  Alcotest.test_case name `Quick (fun () ->
      let engine = ref None in
      let plain = run_small (capture engine p) in
      let plain_events = Sim.Engine.events_executed (Option.get !engine) in
      let probe = Shim.create () in
      Speed.start ();
      let shimmed = run_small (Shim.wrap probe p) in
      Speed.stop ();
      let shim_events = (Option.get probe.closed).events in
      Alcotest.(check bool) "commits" true (plain.committed_txs > 0);
      Alcotest.(check (array (list (pair string string))))
        "honest logs" plain.honest_logs shimmed.honest_logs;
      Alcotest.(check (array (float 0.)))
        "latency samples"
        (Metrics.Recorder.to_array plain.latency_ms)
        (Metrics.Recorder.to_array shimmed.latency_ms);
      Alcotest.(check int) "messages" plain.messages shimmed.messages;
      Alcotest.(check int) "bytes" plain.bytes shimmed.bytes;
      Alcotest.(check int) "events" plain_events shim_events;
      Alcotest.(check bool) "window opened and closed" true
        (Option.is_some probe.opened && Option.is_some probe.started_s))

(* ---- on-time accounting ------------------------------------------------ *)

let window_start_us = 10_000 and window_end_us = 100_000 and limit_us = 20_000

let fate =
  Alcotest.testable
    (fun fmt f ->
      Format.pp_print_string fmt
        (match f with
        | Ledger.Not_attempted -> "not attempted"
        | On_time -> "on time"
        | Failed -> "failed"))
    ( = )

let classify submit_us commit_us =
  Ledger.classify ~window_start_us ~window_end_us ~limit_us ~submit_us ~commit_us

let test_classify () =
  let check what want got = Alcotest.check fate what want got in
  check "in flight at the window end is not counted" Not_attempted
    (classify 85_000 None);
  check "committed after the window, submitted late" Not_attempted
    (classify 90_000 (Some 95_000));
  check "submitted before the window" Not_attempted (classify 5_000 (Some 6_000));
  check "committed within L" On_time (classify 50_000 (Some 60_000));
  check "committed exactly at L" On_time (classify 50_000 (Some 70_000));
  check "committed after L" Failed (classify 50_000 (Some 70_001));
  check "never committed" Failed (classify 50_000 None);
  check "last attempted submit" Failed (classify 80_000 None)

let test_tally () =
  let l = Ledger.create () in
  let tx i at = Ledger.submit l ~tx_id:(string_of_int i) ~at_us:at in
  tx 1 5_000;
  tx 2 50_000;
  tx 3 50_000;
  tx 4 60_000;
  tx 5 85_000;
  Ledger.commit l ~tx_id:"2" ~at_us:60_000;
  Ledger.commit l ~tx_id:"2" ~at_us:99_000;
  Ledger.commit l ~tx_id:"3" ~at_us:75_000;
  let t = Ledger.tally l ~window_start_us ~window_end_us ~limit_us in
  Alcotest.(check int) "submitted in the window" 4 t.submitted;
  Alcotest.(check int) "attempted" 3 t.attempted;
  Alcotest.(check int) "failed: late and never committed" 2 t.failed

(* ---- reporting ---------------------------------------------------------- *)

let dag = Option.get (Workloads.find "dag-n61-closed")

let test_empty_sample_is_not_zero () =
  let rows, failures =
    Report.resolve dag Catalog.end_to_end [ ("wall_s", Some 1.0); ("setup_s", None) ]
  in
  Alcotest.(check bool) "missing samples are failures" true
    (List.mem "no sample behind setup_s" failures);
  let line = Report.result_line ~correct:false ~attempted:1 ~failed:1 rows in
  match Metrics.Json.of_string line with
  | Error e -> Alcotest.fail e
  | Ok v ->
      let value name =
        Option.bind (Metrics.Json.member "metrics" v) (Metrics.Json.member name)
        |> Fun.flip Option.bind (Metrics.Json.member "value")
      in
      Alcotest.(check bool) "empty sample is null" true
        (value "setup_s" = Some Metrics.Json.Null);
      Alcotest.(check bool) "measured value kept" true
        (value "wall_s" = Some (Metrics.Json.Float 1.0))

let test_not_applicable_layers () =
  let rows, failures = Report.resolve dag Catalog.per_layer [] in
  let na =
    List.filter_map
      (fun ((m : Catalog.t), v) ->
        match v with Report.Not_applicable -> Some m.name | _ -> None)
      rows
  in
  Alcotest.(check bool) "lyra phases do not apply to dag" true
    (List.mem "phase.vvb_deliver.p50_ms" na);
  Alcotest.(check bool) "dag phases apply" false (List.mem "phase.wave.p50_ms" na);
  Alcotest.(check bool) "recovery needs a crash" true (List.mem "recovery.catchup_ms" na);
  Alcotest.(check bool) "missing applicable metrics fail" true
    (List.mem "no sample behind phase.wave.p50_ms" failures);
  let json = Report.to_json dag ~seed:1L ~gate:failures ~gc_phases:[] rows in
  Alcotest.(check bool) "report matches its schema" true
    (Result.is_ok (Metrics.Json.check Report.schema json))

let test_small_run_fails_gate () =
  let w = { dag with n = 4; window_us = 2_500_000; limit_us = 1_000_000 } in
  let s = Runner.summarise (Runner.run_case w ~seed:1L) in
  Alcotest.(check bool) "too few window commits" true
    (List.exists (fun g -> String.ends_with ~suffix:"< 200" g) s.gate);
  Alcotest.(check bool) "attempted some" true (s.tally.attempted > 0);
  Alcotest.(check (pair int int))
    "a gated case fails every attempted transaction"
    (s.tally.attempted, s.tally.attempted)
    (Runner.counts [ s ]);
  Alcotest.(check (option (float 0.)))
    "and its on-time share is 0" (Some 0.)
    (List.assoc "tx_on_time_share" (Runner.end_to_end [ s ]))

(* ---- BENCHMARK.json agrees with the catalog ----------------------------- *)

let bench_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Metrics.Json.of_string text with Ok v -> v | Error e -> Alcotest.fail e

let entries key v =
  match Metrics.Json.member key v with
  | Some (Metrics.Json.List xs) -> xs
  | _ -> Alcotest.failf "BENCHMARK.json: %s is not a list" key

let str key v =
  match Metrics.Json.member key v with
  | Some (Metrics.Json.Str s) -> s
  | _ -> Alcotest.failf "BENCHMARK.json: missing string %s" key

let test_benchmark_json () =
  let v = bench_json () in
  let names key = List.map (str "name") (entries key v) in
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    (names "workloads");
  List.iter2
    (fun (w : Workloads.t) e -> Alcotest.(check string) ("why " ^ w.name) w.why (str "why" e))
    Workloads.all (entries "workloads" v);
  let check_metrics key decls =
    Alcotest.(check (list string))
      key
      (List.map (fun (m : Catalog.t) -> m.name) decls)
      (names key);
    List.iter2
      (fun (m : Catalog.t) e ->
        Alcotest.(check string) (m.name ^ " unit") m.unit (str "unit" e);
        Alcotest.(check string)
          (m.name ^ " better") (Catalog.better_name m.better) (str "better" e);
        match (m.bound, Metrics.Json.member "bound" e) with
        | Some b, Some (Metrics.Json.Float b') ->
            Alcotest.(check (float 1e-9)) (m.name ^ " bound") b b'
        | None, None -> ()
        | _ -> Alcotest.failf "%s: bound mismatch" m.name)
      decls (entries key v)
  in
  check_metrics "end_to_end" Catalog.end_to_end;
  check_metrics "per_layer" Catalog.per_layer;
  List.iter
    (fun (m : Catalog.t) ->
      Alcotest.(check bool) ("valid name " ^ m.name) true (Catalog.valid_name m.name))
    (Catalog.end_to_end @ Catalog.per_layer)

let () =
  Alcotest.run "perfbench"
    [
      ("shim", List.map shim_is_transparent (Protocol.Registry.all ()));
      ( "ledger",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "tally" `Quick test_tally;
        ] );
      ( "report",
        [
          Alcotest.test_case "empty sample is null" `Quick test_empty_sample_is_not_zero;
          Alcotest.test_case "not-applicable layers" `Quick test_not_applicable_layers;
          Alcotest.test_case "gate on a small run" `Quick test_small_run_fails_gate;
          Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick
            test_benchmark_json;
        ] );
    ]
