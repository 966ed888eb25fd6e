(* Regenerates every table and figure of the paper's evaluation (§VI)
   plus the supporting microbenchmarks. Run all experiments with
   `dune exec bench/main.exe`, or one with e.g.
   `dune exec bench/main.exe -- fig2`. `--smoke` runs everything at
   tiny n/duration so `dune runtest` exercises the whole harness.
   Every experiment prints its tables and writes a schema-checked
   BENCH_<NAME>.json artifact (see [emit]).
   See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
   paper-vs-measured.

   Every experiment is protocol-generic: it iterates a list of
   (name, adapter) pairs — Protocol.Registry.all or a locally tweaked
   variant — so a new baseline shows up in every table by registering
   an adapter, with no per-experiment code. *)

let smoke = ref false

let fig_ns () = if !smoke then [ 4 ] else [ 5; 10; 16; 31; 61; 100 ]

let scale_dur d = if !smoke then 600_000 else d

let scale_trials k = if !smoke then 1 else k

(* In smoke mode take only the first two points of a sweep. *)
let sweep xs = if !smoke then List.filteri (fun i _ -> i < 2) xs else xs

let small_n n = if !smoke then 4 else n

(* The one way bench reads a recorder: an empty sample has no mean and
   no percentile, so no table or artifact reports a number that
   measured nothing. *)
type stat = Mean | P of float

let stat s r =
  if Metrics.Recorder.is_empty r then None
  else
    Some
      (match s with
      | Mean -> Metrics.Recorder.mean r
      | P p -> Metrics.Recorder.percentile p r)

(* Wall-clock time of the *host* machine, used only to report how long
   each experiment takes to run and to measure simulator events/sec. It
   never feeds simulated time, seeds or results — everything observable
   in the paper figures derives from Sim.Engine.now — so this is exempt
   from determinism rule D002.
   lint: allow D002 *)
let now_wall () = Unix.gettimeofday ()

(* Peak resident set (VmHWM, kB) from /proc/self/status; 0 where the
   proc filesystem is unavailable. Reported, never fed back into any
   simulation. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:"
            then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                (fun kb -> kb)
            else scan ()
      in
      let kb = scan () in
      close_in ic;
      kb

(* Write a JSON artifact, then read it back, re-parse and validate it
   against its schema: a schema drift (or writer bug) fails the smoke
   run in CI instead of silently changing the artifact consumers see. *)
let write_json ~file ~schema v =
  let oc = open_out file in
  output_string oc (Metrics.Json.to_string v);
  close_out oc;
  let ic = open_in file in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Metrics.Json.of_string content with
  | Error e -> failwith (Printf.sprintf "%s: unparseable artifact: %s" file e)
  | Ok v' -> (
      match Metrics.Json.check schema v' with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "%s: schema violation: %s" file e)));
  Printf.printf "[wrote %s]\n%!" file

(* Every experiment is one declaration: a title and the artifact's
   top-level members — scalar [field]s and named [section]s (a column
   list over rows) or [single]s (one row). [emit] derives the printed
   tables, BENCH_<NAME>.json and its schema from that one column list,
   so the three cannot drift apart. *)
let emit name ~title members =
  let doc =
    Metrics.Table.(
      col "experiment" str (fun () -> String.lowercase_ascii name)
      :: col "smoke" bool (fun () -> !smoke)
      :: members)
  in
  Metrics.Table.print ~title doc [ () ];
  write_json
    ~file:("BENCH_" ^ name ^ ".json")
    ~schema:(Metrics.Table.schema doc) (Metrics.Table.to_json doc ())

let field key kind v = Metrics.Table.col key kind (fun () -> v)

let section key cols data =
  Metrics.Table.col key (Metrics.Table.rows cols) (fun () -> data)

let single key cols row =
  Metrics.Table.col key (Metrics.Table.obj cols) (fun () -> row)

(* Getters over a (parameter, run) row. *)
let res f (_, (r : Harness.Scenario.result)) = f r

let mean_latency row = res (fun r -> stat Mean r.latency_ms) row

let check_safety label (r : Harness.Scenario.result) =
  if not (r.prefix_safe && r.late_accepts = 0) then
    failwith
      (Printf.sprintf "%s %s n=%d: prefix %b late=%d" label r.protocol r.n
         r.prefix_safe r.late_accepts)

(* ------------------------------------------------------------------ *)
(* FIG1 — triangle-inequality front-running (Fig. 1 + §V-E).           *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  let trials = scale_trials 10 in
  let outcome f (_, (o : Attacks.Frontrun.outcome)) = f o in
  emit "FIG1"
    ~title:
      "FIG1  front-running via triangle-inequality violation (Tokyo victim, \
       Singapore attacker, Sydney quorum)"
    [
      field "trials" Metrics.Table.int trials;
      section "rows"
        Metrics.Table.
          [
            col "protocol" str fst;
            col "trials" int (outcome (fun o -> o.trials));
            col "observed" int (outcome (fun o -> o.observed));
            col "launched" int (outcome (fun o -> o.launched));
            col "succeeded" int (outcome (fun o -> o.succeeded));
            col "victim_first_gap_ms" (num 1)
              (outcome (fun o -> o.victim_first_gap_ms));
          ]
        (List.map
           (fun protocol -> (protocol, Attacks.Frontrun.run ~trials ~protocol ()))
           Attacks.Frontrun.protocols);
    ]

(* ------------------------------------------------------------------ *)
(* FIG2 — commit latency vs n (closed-loop clients, light load).       *)
(* ------------------------------------------------------------------ *)

(* Smoke rows must still measure something: a row that commits zero
   transactions exercises the pipeline but silently reports mean 0.0 /
   NaN, which once hid a dead measurement window for two protocols
   (ROADMAP). Fail loudly instead — bench --smoke runs under
   `dune runtest`, so a regression breaks tier-1. *)
let check_smoke_commits label (r : Harness.Scenario.result) =
  if !smoke && r.committed_txs = 0 then
    failwith
      (Printf.sprintf
         "%s --smoke: %s n=%d committed 0 txs inside the measurement window \
          (window_us=%d); widen the smoke window past the protocol's \
          closed-loop turnaround"
         label r.protocol r.n r.window_us)

(* The per-protocol stretch of a measurement window. Leader-based
   pipelines (pompe, hotstuff) have a ~2.7 s closed-loop turnaround:
   give them a window that fits at least one full turn at every n. In
   smoke mode the 0.6 s base window is shorter than every protocol's
   turnaround, and clients start (and first submit) before the
   measurement window opens, so only a *second* closed-loop turn can be
   measured: the leaderless protocols' (lyra, dag) lands at ~2.2 s into
   the window and Pompe's at ~5.4 s. Simulated seconds at n=4 are
   nearly free in wall-clock terms. *)
let window_extra = function
  | "lyra" | "dag" -> if !smoke then 1_400_000 else 0
  | _ -> if !smoke then 5_400_000 else 3_000_000

let fig2 () =
  (* Smoke also runs one paper-scale row: n=100 for every protocol, so
     the scale the timing-wheel scheduler exists for rides `dune
     runtest` (bench --smoke) and cannot silently rot between full
     bench runs. The row is tuned for cost, not for the figure (the
     artifact is marked smoke): Lyra runs a trickle of open load with
     warmup proposals off — every batch is a full n^2 VSS + consensus
     wave, ~85k messages at n=100, so the row's budget is set by how
     few batches the protocol can be driven at; the leader-based
     pipelines are message-cheap but need a window past their n=100
     closed-loop turnaround (~20 s for Pompe, whose stable-execution
     margin scales with the commit lag it observes at this n). *)
  let smoke_100_specs () =
    [
      ( Protocol.Lyra_adapter.make
          ~tweak:(fun c ->
            {
              c with
              Lyra.Config.warmup_proposals = 0;
              status_interval_us = 100_000;
            })
          (),
        Harness.Scenario.Open_rate 0.05,
        Some 300_000,
        2_500_000 );
      (Protocol.Pompe_adapter.make (), Harness.Scenario.Closed 2, None, 30_000_000);
      ( Protocol.Hotstuff_adapter.make (),
        Harness.Scenario.Closed 2,
        None,
        6_000_000 );
    ]
  in
  let ns = if !smoke then [ 4; 100 ] else [ 5; 10; 16; 31; 61; 100 ] in
  let data =
    List.concat_map
      (fun n ->
        let dur = scale_dur (if n >= 61 then 1_500_000 else 3_000_000) in
        let specs =
          if !smoke && Int.equal n 100 then smoke_100_specs ()
          else
            List.map
              (fun (name, p) ->
                (p, Harness.Scenario.Closed 2, None, dur + window_extra name))
              (Protocol.Registry.all ())
        in
        let results =
          List.map
            (fun (p, load, warmup_us, duration_us) ->
              let r =
                Harness.Scenario.run p ~n ~load ?warmup_us ~duration_us ()
              in
              check_safety "fig2" r;
              check_smoke_commits "fig2" r;
              r)
            specs
        in
        let lyra_mean =
          match results with
          | r :: _ -> stat Mean r.latency_ms
          | [] -> None
        in
        List.map (fun r -> ((n, lyra_mean), r)) results)
      ns
  in
  emit "FIG2"
    ~title:
      "FIG2  commit latency vs n (ms; paper: Lyra < 1 s, ~2x lower than \
       Pompe at n > 60)"
    [
      section "rows"
        Metrics.Table.
          [
            col "n" int (fun ((n, _), _) -> n);
            col "protocol" str (res (fun r -> r.protocol));
            col "mean_ms" (opt (num 0)) mean_latency;
            col "p50_ms" (opt (num 0)) (res (fun r -> stat (P 50.0) r.latency_ms));
            col "vs_lyra" (opt (num 2)) (fun (((_, lyra_mean), _) as row) ->
                match (mean_latency row, lyra_mean) with
                | Some mean, Some lyra -> Some (mean /. lyra)
                | _ -> None);
            col "throughput_tps" (num 0) (res (fun r -> r.throughput_tps));
            col "committed_txs" int (res (fun r -> r.committed_txs));
          ]
        data;
    ]

(* ------------------------------------------------------------------ *)
(* FIG3 — throughput vs n.                                             *)
(*                                                                     *)
(* Lyra is driven like the paper drives it: a fixed client population  *)
(* per node (offered load grows with n). The leader-based baselines    *)
(* are driven at their own benchmarks' saturation offered load, so the *)
(* curves show their capacity ceiling (leader bandwidth + O(n)         *)
(* verifications per batch for Pompe), which falls as n grows.         *)
(* ------------------------------------------------------------------ *)

(* The saturation setup FIG3 and ABLATE share, one entry per registered
   protocol: (name, adapter, offered tx/s per node at n, window
   stretch). Leaderless protocols — lyra, dag and, by default, any newly
   registered one — get Lyra's fixed client population per node; the
   leader-based baselines split their saturation load over the nodes,
   cut 64-tx blocks and need 2 s past the base window. In smoke mode
   the 0.6 s base window ends before Lyra's ~1 s commit latency (350 ms
   batch timeout) lands a transaction, hence [window_extra] for the
   leaderless ones. *)
let saturation_specs () =
  let per_node = if !smoke then 600.0 else 2_400.0 in
  let leader_total = if !smoke then 4_000.0 else 120_000.0 in
  let leaderless name p = (name, p, (fun _n -> per_node), window_extra name) in
  let leader name p =
    (name, p, (fun n -> leader_total /. float_of_int n), 2_000_000)
  in
  List.map
    (fun (name, p) ->
      match name with
      | "lyra" ->
          leaderless name
            (Protocol.Lyra_adapter.make
               ~tweak:(fun c ->
                 { c with Lyra.Config.batch_timeout_us = 350_000; max_inflight = 16 })
               ())
      | "pompe" ->
          leader name
            (Protocol.Pompe_adapter.make
               ~tweak:(fun c -> { c with Pompe.Config.block_capacity = 64 })
               ())
      | "hotstuff" ->
          leader name
            (Protocol.Hotstuff_adapter.make
               ~tweak:(fun c -> { c with Hotstuff.Smr.block_capacity = 64 })
               ())
      | _ -> leaderless name p)
    (Protocol.Registry.all ())

let fig3 () =
  let specs = saturation_specs () in
  let data =
    List.concat_map
      (fun n ->
        let dur = scale_dur (if n >= 61 then 1_500_000 else 3_000_000) in
        let results =
          List.map
            (fun (_, p, rate, extra) ->
              let r =
                Harness.Scenario.run p ~n
                  ~load:(Harness.Scenario.Open_rate (rate n))
                  ~duration_us:(dur + extra) ()
              in
              check_safety "fig3" r;
              check_smoke_commits "fig3" r;
              r)
            specs
        in
        let lyra_tps =
          match results with r :: _ -> r.throughput_tps | [] -> Float.nan
        in
        List.map (fun r -> ((n, lyra_tps), r)) results)
      (fig_ns ())
  in
  emit "FIG3"
    ~title:
      "FIG3  throughput vs n (tx/s; paper: Pompe ahead below ~20-30 nodes, \
       Lyra scales to ~240k at n=100, ~7x Pompe)"
    [
      section "rows"
        Metrics.Table.
          [
            col "n" int (fun ((n, _), _) -> n);
            col "protocol" str (res (fun r -> r.protocol));
            col "throughput_tps" (num 0) (res (fun r -> r.throughput_tps));
            col "lyra_ratio" (num 2) (fun ((_, lyra_tps), r) ->
                lyra_tps /. r.Harness.Scenario.throughput_tps);
            col "committed_txs" int (res (fun r -> r.committed_txs));
            col "messages" int (res (fun r -> r.messages));
            col "bytes" int (res (fun r -> r.bytes));
          ]
        data;
    ]

(* ------------------------------------------------------------------ *)
(* LAT3R — good-case latency is 3 message delays (Thm 3; Pompe: 11).   *)
(* ------------------------------------------------------------------ *)

let rounds () =
  let n = small_n 16 in
  let results =
    List.map
      (fun (_, p) ->
        Harness.Scenario.run p ~n ~load:(Harness.Scenario.Closed 1)
          ~duration_us:(scale_dur 4_000_000) ())
      (Protocol.Registry.all ())
  in
  let regions = Sim.Regions.paper_placement n in
  let total = ref 0 and cnt = ref 0 in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          total := !total + Sim.Regions.one_way_us a b;
          incr cnt)
        regions)
    regions;
  let delta_ms = float_of_int !total /. float_of_int !cnt /. 1000. in
  let mean (r : Harness.Scenario.result) = stat Mean r.latency_ms in
  (* The phases are the latency anatomy behind those totals: Lyra's
     boc_decide row is Thm 3's claim in the data — mean ≈ 3 one-way
     delays. *)
  emit "LAT3R"
    ~title:
      "LAT3R  good-case round complexity (BOC decides in round 1 = 3 message \
       delays, Thm 3; phases: own batches, ms)"
    [
      field "n" Metrics.Table.int n;
      field "mean_one_way_delay_ms" (Metrics.Table.num 1) delta_ms;
      section "protocols"
        Metrics.Table.
          [
            col "protocol" str (fun (r : Harness.Scenario.result) -> r.protocol);
            col "decide_rounds_mean" (opt (num 3))
              (fun (r : Harness.Scenario.result) ->
                if r.decide_rounds > 0. then Some r.decide_rounds else None);
            col "latency_ms_mean" (opt (num 0)) mean;
            col "latency_in_delays" (opt (num 1)) (fun r ->
                Option.map (fun m -> m /. delta_ms) (mean r));
            col "phases" (rows Harness.Scenario.phase_columns)
              (fun (r : Harness.Scenario.result) -> r.phases);
          ]
        results;
    ];
  match
    List.find_opt
      (fun (r : Harness.Scenario.result) -> String.equal r.protocol "lyra")
      results
  with
  | Some r -> (
      match Option.bind (List.assoc_opt "boc_decide" r.phases) (stat Mean) with
      | Some boc ->
          Printf.printf
            "\nLAT3R check  lyra boc_decide mean = %.1f ms = %.2f one-way \
             delays (Thm 3: 3)\n%!"
            boc (boc /. delta_ms)
      | None -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* LAMBDA — security-parameter sweep (§VI-B: λ = 5 ms suffices).       *)
(* ------------------------------------------------------------------ *)

let lambda () =
  let n = small_n 16 in
  let runs =
    List.map
      (fun lambda_ms ->
        ( lambda_ms,
          Harness.Scenario.run
            (Protocol.Lyra_adapter.make
               ~tweak:(fun c -> { c with Lyra.Config.lambda_us = lambda_ms * 1000 })
               ())
            ~n ~load:(Harness.Scenario.Closed 2)
            ~duration_us:(scale_dur 3_000_000 + window_extra "lyra") () ))
      (sweep [ 1; 2; 5; 10; 20; 50 ])
  in
  List.iter (fun (_, r) -> check_smoke_commits "lambda" r) runs;
  emit "LAMBDA"
    ~title:
      "LAMBDA  security parameter sweep at n=16 (paper: 5 ms without \
       performance loss)"
    [
      field "n" Metrics.Table.int n;
      section "rows"
        Metrics.Table.
          [
            col "lambda_ms" int fst;
            col "accept_rate" (num 3) (res (fun r -> r.accept_rate));
            col "throughput_tps" (num 0) (res (fun r -> r.throughput_tps));
            col "latency_ms_mean" (opt (num 0)) mean_latency;
          ]
        runs;
    ]

(* ------------------------------------------------------------------ *)
(* BATCH — batch-size sweep (§VI-B: 800 maximizes throughput).         *)
(* ------------------------------------------------------------------ *)

let batch () =
  let n = small_n 16 in
  let runs =
    List.map
      (fun bs ->
        ( bs,
          Harness.Scenario.run
            (Protocol.Lyra_adapter.make
               ~tweak:(fun c ->
                 {
                   c with
                   Lyra.Config.batch_size = bs;
                   batch_timeout_us = 250_000;
                   max_inflight = 16;
                 })
               ())
            ~n
            ~load:(Harness.Scenario.Open_rate (if !smoke then 800.0 else 4_000.0))
            ~duration_us:(scale_dur 3_000_000 + window_extra "lyra") () ))
      (sweep [ 100; 200; 400; 800; 1600; 3200 ])
  in
  List.iter (fun (_, r) -> check_smoke_commits "batch" r) runs;
  emit "BATCH" ~title:"BATCH  batch-size sweep at n=16, 4k tx/s per node offered"
    [
      field "n" Metrics.Table.int n;
      section "rows"
        Metrics.Table.
          [
            col "batch_size" int fst;
            col "throughput_tps" (num 0) (res (fun r -> r.throughput_tps));
            col "latency_ms_mean" (opt (num 0)) mean_latency;
            col "latency_ms_p95" (opt (num 0))
              (res (fun r -> stat (P 95.0) r.latency_ms));
          ]
        runs;
    ]

(* ------------------------------------------------------------------ *)
(* BYZ — Byzantine behaviours (§VI-D).                                 *)
(* ------------------------------------------------------------------ *)

let byz () =
  let n = small_n 16 in
  let fmax = Dbft.Quorums.max_faulty n in
  let run (name, mis) =
    let r =
      Harness.Scenario.run
        (Protocol.Lyra_adapter.make
           ~byz:(fun i -> if i < fmax then mis else None)
           ())
        ~n ~load:(Harness.Scenario.Closed 2)
        ~duration_us:(scale_dur 3_000_000 + window_extra "lyra") ()
    in
    check_smoke_commits "byz" r;
    (name, r)
  in
  emit "BYZ"
    ~title:
      (Printf.sprintf
         "BYZ  Lyra under f=%d Byzantine nodes at n=%d (safety must hold; \
          liveness degrades gracefully)"
         fmax n)
    [
      field "n" Metrics.Table.int n;
      field "f" Metrics.Table.int fmax;
      section "rows"
        Metrics.Table.
          [
            col "behaviour" str fst;
            col "throughput_tps" (num 0) (res (fun r -> r.throughput_tps));
            col "latency_ms_mean" (opt (num 0)) mean_latency;
            col "accept_rate" (num 3) (res (fun r -> r.accept_rate));
            col "prefix_safe" bool (res (fun r -> r.prefix_safe));
          ]
        (List.map run
           (sweep
              [
                ("none", None);
                ("silent", Some Lyra.Misbehavior.Silent);
                ( "flood 4/s",
                  Some (Lyra.Misbehavior.Flood { batches_per_sec = 4 }) );
                ( "future-seq +3ms",
                  Some (Lyra.Misbehavior.Future_seq { offset_us = 3_000 }) );
                ( "future-seq +40ms",
                  Some (Lyra.Misbehavior.Future_seq { offset_us = 40_000 }) );
                ("low-status", Some Lyra.Misbehavior.Low_status);
                ("equivocate", Some Lyra.Misbehavior.Equivocate);
                ( "stale-votes 1s",
                  Some (Lyra.Misbehavior.Stale_votes { delay_us = 1_000_000 }) );
              ]));
    ]

(* ------------------------------------------------------------------ *)
(* MEV — sandwich extraction on the AMM (§V-E).                        *)
(* ------------------------------------------------------------------ *)

let mev () =
  let trials = scale_trials 5 in
  let outcome f (_, (o : Attacks.Sandwich.outcome)) = f o in
  emit "MEV"
    ~title:"MEV  sandwich attack on a constant-product AMM (victim swap 500k X)"
    [
      field "trials" Metrics.Table.int trials;
      section "rows"
        Metrics.Table.
          [
            col "protocol" str fst;
            col "launched" int (outcome (fun o -> o.launched));
            col "attacker_profit_x" (num 0)
              (outcome (fun o -> o.attacker_profit_x));
            col "victim_out_mean" (num 0) (outcome (fun o -> o.victim_out_mean));
            col "victim_out_baseline" (num 0)
              (outcome (fun o -> o.victim_out_baseline));
            col "victim_loss_pct" (num 1)
              (outcome (fun o ->
                   100.
                   *. (o.victim_out_baseline -. o.victim_out_mean)
                   /. o.victim_out_baseline));
          ]
        (List.map
           (fun protocol -> (protocol, Attacks.Sandwich.run ~trials ~protocol ()))
           Attacks.Sandwich.protocols);
    ]

(* ------------------------------------------------------------------ *)
(* FAIRNESS — the receive-order fairness scorecard (docs/FAIRNESS.md). *)
(*                                                                     *)
(* Every protocol runs three scenarios — honest closed-loop load, an   *)
(* MEV-searcher AMM workload (frontrun), and a targeted pre-GST        *)
(* adversary distorting one node's links (eclipse) — and each run is   *)
(* scored by Fairness.score from the harness's receive-order tap:      *)
(* Kendall-tau inversion rate, γ-batch-order violations, per-sender    *)
(* positional advantage and (for the searcher scenario) the            *)
(* front-run-success rate. The timestamp-ordered protocols (lyra, dag) *)
(* should sit at the bottom of the inversion column.                   *)
(* ------------------------------------------------------------------ *)

(* A fairness row that commits nothing scores an empty report and the
   scorecard silently degenerates; same failure mode (and same loud
   fix) as [check_smoke_commits]. *)
let check_smoke_fairness label (r : Harness.Scenario.result) =
  check_smoke_commits label r;
  if !smoke then
    match r.fairness with
    | Some f when f.Fairness.decided > 0 && f.Fairness.observers > 0 -> ()
    | _ ->
        failwith
          (Printf.sprintf
             "%s --smoke: %s n=%d committed %d txs but scored no fairness \
              report (no decided keys or no receive logs)"
             label r.protocol r.n r.committed_txs)

let fairness () =
  let n = 4 in
  let market =
    { Workload.Engine.reserve_x = 50_000_000; reserve_y = 50_000_000 }
  in
  let searcher =
    {
      Workload.Engine.searchers = 2;
      observe_delay_us = 3_000;
      back_delay_us = 2_000;
      front_fraction = 0.5;
      min_victim_amount = 10_000;
    }
  in
  let wl_spec =
    Workload.Engine.spec ~market ~searcher
      [
        {
          Workload.Engine.name = "amm-users";
          clients = 50_000;
          rate_per_client = 0.0008;
          shape = Workload.Engine.Constant;
          mix = Workload.Engine.Amm_swaps { amount_min = 20_000; amount_max = 80_000 };
        };
      ]
  in
  let runs =
    List.concat_map
      (fun (name, ((module P : Protocol.NODE) as p)) ->
        let dur = scale_dur 3_000_000 + window_extra name in
        let scenarios =
          [
            ( "honest",
              fun () ->
                Harness.Scenario.run p ~n ~load:(Harness.Scenario.Closed 2)
                  ~duration_us:dur () );
            ( "frontrun",
              fun () ->
                Harness.Scenario.run p ~n ~load:(Harness.Scenario.Closed 0)
                  ~workload:wl_spec ~duration_us:dur () );
            ( "eclipse",
              fun () ->
                (* One victim's links are slowed until a GST in the
                   middle of the measurement window, so half the run's
                   receive orders disagree with the cluster's. *)
                let gst = P.default_warmup_us + (dur / 2) in
                Harness.Scenario.run p ~n ~load:(Harness.Scenario.Closed 2)
                  ~adversary:
                    (Sim.Adversary.targeted ~gst ~max_extra:120_000
                       ~victims:[ 1 ])
                  ~duration_us:dur () );
          ]
        in
        List.map
          (fun (scenario, f) ->
            let r = f () in
            if not r.Harness.Scenario.prefix_safe then
              failwith
                (Printf.sprintf "fairness %s/%s: prefix violation" name scenario);
            check_smoke_fairness "fairness" r;
            (scenario, r))
          scenarios)
      (Protocol.Registry.all ())
  in
  let report (r : Harness.Scenario.result) =
    match r.fairness with
    | Some f -> f
    | None -> failwith ("fairness: no report for " ^ r.protocol)
  in
  let summary (f : Fairness.report) =
    Printf.sprintf "inv %d/%d = %.4f  gamma %s  frontrun %s" f.inversions
      f.pairs f.inversion_rate
      (String.concat " "
         (List.map
            (fun (g : Fairness.gamma_row) ->
              Printf.sprintf "%.1f:%d" g.gamma g.violations)
            f.gamma_rows))
      (match f.frontrun_success with
      | None -> "-"
      | Some s -> Printf.sprintf "%.2f" s)
  in
  emit "FAIRNESS"
    ~title:
      (Printf.sprintf
         "FAIRNESS  receive-order fairness per protocol and scenario (n=%d; \
          inversion rate: timestamp-ordered protocols should dominate)"
         n)
    [
      field "n" Metrics.Table.int n;
      section "rows"
        Metrics.Table.
          [
            col "protocol" str (res (fun r -> r.protocol));
            col "scenario" str fst;
            col "committed_txs" int (res (fun r -> r.committed_txs));
            col "fairness"
              (json ~cell:summary Fairness.schema Fairness.to_json)
              (res report);
          ]
        runs;
    ]

(* ------------------------------------------------------------------ *)
(* WORKLOAD — the open-loop workload engine: a million modelled        *)
(* clients in O(1) state, flash-crowd + hot-key + MEV-rich AMM flows   *)
(* driven through every protocol, with per-protocol extracted value.   *)
(* ------------------------------------------------------------------ *)

(* Part 1: the pinned scale self-check. A single stream modelling 10⁶
   clients runs against a sink that echoes commits back after a fixed
   delay — no consensus, pure engine — and the run must (a) actually
   sustain the aggregate rate, (b) flip its latency recorder into
   streaming mode, and (c) retain zero raw samples afterwards (the
   bounded-memory claim, checked structurally rather than by RSS). *)
let workload_selfcheck () =
  let clients = 1_000_000 in
  let horizon_us = if !smoke then 250_000 else 1_000_000 in
  let echo_delay_us = 3_000 in
  let engine = Sim.Engine.create ~seed:7L () in
  let spec =
    Workload.Engine.spec
      [
        {
          Workload.Engine.name = "scale";
          clients;
          rate_per_client = 0.1;
          shape =
            Workload.Engine.Flash_crowd
              {
                at_us = horizon_us / 4;
                ramp_us = horizon_us / 8;
                peak = 3.0;
                decay_us = horizon_us / 4;
              };
          mix = Workload.Engine.Fixed { size = 8 };
        };
      ]
  in
  let wl = ref None in
  let next = ref 0 in
  let submit ~node:_ ~payload =
    let tx_id = "t" ^ string_of_int !next in
    incr next;
    let p = payload in
    ignore
      (Sim.Engine.schedule engine ~delay:echo_delay_us (fun () ->
           match !wl with
           | Some w ->
               Workload.Engine.on_commit w ~tx_id ~payload:p
                 ~now_us:(Sim.Engine.now engine)
           | None -> ())
        : Sim.Engine.timer);
    tx_id
  in
  let w = Workload.Engine.create engine spec ~nodes:1 ~submit () in
  wl := Some w;
  Workload.Engine.start w;
  Sim.Engine.run engine ~until:horizon_us;
  Workload.Engine.stop w;
  (* drain in-flight echoes so every submission resolves *)
  Sim.Engine.run engine ~until:(horizon_us + (2 * echo_delay_us));
  let rec_ = Workload.Engine.stream_recorder w 0 in
  let submitted = Workload.Engine.total_submitted w in
  let committed = Workload.Engine.total_committed w in
  let fail fmt = Printf.ksprintf failwith ("workload selfcheck: " ^^ fmt) in
  if submitted < 2 * Workload.Engine.default_latency_cap then
    fail "only %d arrivals; rate not sustained" submitted;
  if not (Metrics.Recorder.is_streaming rec_) then
    fail "recorder never engaged streaming mode (%d samples)"
      (Metrics.Recorder.count rec_);
  if Metrics.Recorder.retained_samples rec_ <> 0 then
    fail "streaming recorder retains %d raw samples"
      (Metrics.Recorder.retained_samples rec_);
  if committed <> submitted then
    fail "echo sink lost transactions (%d submitted, %d committed)" submitted
      committed;
  if Workload.Engine.pending_count w <> 0 then
    fail "%d transactions still pending after drain"
      (Workload.Engine.pending_count w);
  (clients, submitted, committed, rec_)

let workload () =
  let clients, sc_submitted, sc_committed, sc_rec = workload_selfcheck () in
  (* Part 2: the protocol scorecard. A flash-crowd KV stream (hot-key
     Zipf skew) plus an AMM user stream raced by seeded searchers run
     through every protocol; the committed order is replayed to price
     the searchers' extraction. Fair ordering should crush it. *)
  let market =
    { Workload.Engine.reserve_x = 50_000_000; reserve_y = 50_000_000 }
  in
  let searcher =
    {
      Workload.Engine.searchers = 3;
      observe_delay_us = 3_000;
      back_delay_us = 2_000;
      front_fraction = 0.5;
      min_victim_amount = 10_000;
    }
  in
  let scale = if !smoke then 1.0 else 4.0 in
  let wl_spec =
    Workload.Engine.spec ~market ~searcher
      [
        {
          Workload.Engine.name = "kv-flash";
          clients = 200_000;
          rate_per_client = 0.0004 *. scale;
          shape =
            Workload.Engine.Flash_crowd
              {
                at_us = 1_000_000;
                ramp_us = 300_000;
                peak = 5.0;
                decay_us = 500_000;
              };
          mix = Workload.Engine.Kv { keys = 1_000; zipf = 1.1 };
        };
        {
          Workload.Engine.name = "amm-users";
          clients = 50_000;
          rate_per_client = 0.0008 *. scale;
          shape = Workload.Engine.Constant;
          mix = Workload.Engine.Amm_swaps { amount_min = 20_000; amount_max = 80_000 };
        };
      ]
  in
  let n = small_n 7 in
  let results =
    List.map
      (fun (name, p) ->
        let r =
          Harness.Scenario.run p ~n ~load:(Harness.Scenario.Closed 0)
            ~workload:wl_spec
            ~duration_us:(scale_dur 3_000_000 + window_extra name)
            ()
        in
        check_safety "workload" r;
        check_smoke_commits "workload" r;
        (* every stream must land transactions even at smoke scale — a
           silent 0 here means the workload never reached consensus *)
        List.iter
          (fun (s : Workload.Engine.stream_summary) ->
            if !smoke && s.s_committed = 0 then
              failwith
                (Printf.sprintf
                   "workload --smoke: %s stream %s committed 0 of %d submitted"
                   r.protocol s.s_name s.s_submitted))
          r.workload_streams;
        r)
      (Protocol.Registry.all ())
  in
  (* Read once, after every run, so the table and the artifact agree. *)
  let rss = peak_rss_kb () in
  let stream f (_, (s : Workload.Engine.stream_summary)) = f s in
  let mev f (_, (m : Workload.Engine.mev)) = f m in
  emit "WORKLOAD"
    ~title:
      (Printf.sprintf
         "WORKLOAD  scale self-check (open-loop engine vs echo sink; streaming \
          recorder must engage), flash-crowd + hot-key + AMM flows per \
          protocol (n=%d) and searcher extraction from the committed order \
          (replayed; fair ordering should crush it)"
         n)
    [
      single "selfcheck"
        Metrics.Table.
          [
            col "modelled_clients" int (fun () -> clients);
            col "submitted" int (fun () -> sc_submitted);
            col "committed" int (fun () -> sc_committed);
            col "streaming" bool (fun () -> Metrics.Recorder.is_streaming sc_rec);
            col "retained_samples" int (fun () ->
                Metrics.Recorder.retained_samples sc_rec);
            col "latency_cap" int (fun () -> Workload.Engine.default_latency_cap);
            col "peak_rss_kb" int (fun () -> rss);
          ]
        ();
      section "rows"
        Metrics.Table.
          [
            col "protocol" str fst;
            col "stream" str (stream (fun s -> s.s_name));
            col "clients" int (stream (fun s -> s.s_clients));
            col "submitted" int (stream (fun s -> s.s_submitted));
            col "committed" int (stream (fun s -> s.s_committed));
            col "lat_p50_ms" (opt (num 0))
              (stream (fun s -> Option.map (fun us -> us /. 1000.) s.s_lat_p50_us));
            col "lat_p99_ms" (opt (num 0))
              (stream (fun s -> Option.map (fun us -> us /. 1000.) s.s_lat_p99_us));
            col "streaming" bool (stream (fun s -> s.s_streaming));
          ]
        (List.concat_map
           (fun (r : Harness.Scenario.result) ->
             List.map (fun s -> (r.protocol, s)) r.workload_streams)
           results);
      section "mev"
        Metrics.Table.
          [
            col "protocol" str fst;
            col "user_swaps" int (mev (fun m -> m.user_swaps));
            col "searcher_swaps" int (mev (fun m -> m.searcher_swaps));
            col "extracted_value_y" (num 0) (mev (fun m -> m.extracted_value_y));
            col "victim_slippage_y" int (mev (fun m -> m.victim_slippage_y));
            col "final_price_x_micro" int (mev (fun m -> m.final_price_x_micro));
          ]
        (List.filter_map
           (fun (r : Harness.Scenario.result) ->
             Option.map (fun m -> (r.protocol, m)) r.mev)
           results);
    ]

(* ------------------------------------------------------------------ *)
(* CENSOR — Byzantine-leader censorship (§V-E).                        *)
(* ------------------------------------------------------------------ *)

let censor () =
  let n = small_n 7 in
  let o = Attacks.Censorship.run ~n () in
  let measured f (_, _, (m : Attacks.Censorship.measurement)) = f m in
  emit "CENSOR"
    ~title:
      (Printf.sprintf
         "CENSOR  victim-tx latency and reordering under censorship (n=%d)" n)
    [
      field "n" Metrics.Table.int n;
      section "rows"
        Metrics.Table.
          [
            col "protocol" str (fun (protocol, _, _) -> protocol);
            col "setting" str (fun (_, setting, _) -> setting);
            col "mean_ms" (num 0) (measured (fun m -> m.mean_ms));
            col "worst_ms" (num 0) (measured (fun m -> m.worst_ms));
            col "reordered" int (measured (fun m -> m.reordered));
          ]
        o.rows;
    ]

(* ------------------------------------------------------------------ *)
(* FAULTS — the robustness matrix: every protocol × every fault kind.  *)
(*                                                                     *)
(* Each cell runs the generic scenario under a deterministic           *)
(* Sim.Faults plan while the continuous invariant monitor watches the  *)
(* output streams. The table reports what the plan actually did        *)
(* (drops, duplicates), how consensus felt it (stall windows) and the  *)
(* verdict (prefix/durability violations — must always be none).      *)
(* Fault times are placed relative to each protocol's warm-up and      *)
(* duration so the same matrix runs at smoke scale.                    *)
(* ------------------------------------------------------------------ *)

let faults () =
  let n = 4 in
  let sydney = Sim.Faults.island_of_regions ~n [ Sim.Regions.Sydney ] in
  let plans ~warmup_us ~duration_us =
    let at frac = warmup_us + int_of_float (frac *. float_of_int duration_us) in
    let crash p =
      Sim.Faults.crash ~node:1 ~at_us:(at 0.2) ~recover_us:(at 0.45) p
    in
    let loss p =
      Sim.Faults.loss ~dup_p:0.005 ~from_us:(at 0.1) ~until_us:(at 0.5)
        ~drop_p:0.01 p
    in
    let partition p =
      Sim.Faults.partition ~from_us:(at 0.55) ~heal_us:(at 0.7) ~island:sydney
        p
    in
    let skew p = Sim.Faults.skew ~node:3 ~skew_us:2_000 p in
    let none = Sim.Faults.none in
    [
      ("crash+recover", crash none);
      ("loss 1%", loss none);
      ("partition+heal", partition none);
      ("clock skew", skew none);
      ("combined", none |> loss |> crash |> partition |> skew);
    ]
  in
  let runs =
    List.concat_map
      (fun name ->
        let ((module P : Protocol.NODE) as p) =
          Option.get (Protocol.Registry.get name)
        in
        let duration_us =
          scale_dur (if String.equal name "pompe" then 8_000_000 else 4_000_000)
          + window_extra name
        in
        List.map
          (fun (plan_name, plan) ->
            let r =
              Harness.Scenario.run ~faults:plan p ~n
                ~load:(Harness.Scenario.Closed 2) ~duration_us ()
            in
            check_smoke_commits ("faults " ^ plan_name) r;
            ((name, plan_name), r))
          (plans ~warmup_us:P.default_warmup_us ~duration_us))
      Protocol.Registry.names
  in
  emit "FAULTS"
    ~title:
      (Printf.sprintf
         "FAULTS  crash/loss/partition/skew matrix under the invariant \
          monitor (n=%d; violations must be none)"
         n)
    [
      field "n" Metrics.Table.int n;
      section "rows"
        Metrics.Table.
          [
            col "protocol" str (fun ((name, _), _) -> name);
            col "plan" str (fun ((_, plan), _) -> plan);
            col "throughput_tps" (num 0) (res (fun r -> r.throughput_tps));
            col "dropped_msgs" int (res (fun r -> r.dropped_msgs));
            col "dup_msgs" int (res (fun r -> r.dup_msgs));
            col "stalls" int (res (fun r -> List.length r.stall_windows));
            col "violation" (opt str)
              (res (fun r ->
                   Option.map
                     (fun v -> v.Harness.Invariant_monitor.v_kind)
                     r.first_violation));
          ]
        runs;
    ]

(* ------------------------------------------------------------------ *)
(* ATTACK — the attacker-window scorecard: per protocol, the minimal   *)
(* adversary budget (owned victim links / route inflation / pre-GST    *)
(* delay) before an oracle trips. The campaigns come from              *)
(* Explore.Attack; this experiment prints the scorecard, enforces the  *)
(* headline claims (full isolation must starve the victim everywhere;  *)
(* f+1 netgroup-diverse links must keep Lyra's suite clean) and        *)
(* emits BENCH_ATTACK.json.                                            *)
(* ------------------------------------------------------------------ *)

let attack () =
  let n = 4 in
  let seed = 7L in
  let placements = if !smoke then 1 else 3 in
  let rows = Explore.Attack.scorecard ~seed ~n ~placements () in
  let opt_s = function None -> "-" | Some s -> s in
  emit "ATTACK"
    ~title:
      (Printf.sprintf
         "ATTACK  minimal adversary budget before an oracle trips (n=%d, \
          %d placement%s; '-' = no window up to the ceiling)"
         n placements
         (if placements = 1 then "" else "s"))
    [
      field "n" Metrics.Table.int n;
      field "seed" Metrics.Table.int (Int64.to_int seed);
      field "placements" Metrics.Table.int placements;
      section "rows"
        Metrics.Table.
          [
            col "protocol" str (fun (r : Explore.Attack.row) -> r.protocol);
            col "attack" str (fun (r : Explore.Attack.row) -> r.attack);
            col "budget_unit" str (fun (r : Explore.Attack.row) -> r.budget_unit);
            col "max_budget" int (fun (r : Explore.Attack.row) -> r.max_budget);
            col "minimal_budget" (opt int) (fun (r : Explore.Attack.row) ->
                r.minimal_budget);
            col "tripped" (opt str) (fun (r : Explore.Attack.row) -> r.tripped);
            col "ceiling_tripped" (opt str) (fun (r : Explore.Attack.row) ->
                r.ceiling_tripped);
            col "runs" int (fun (r : Explore.Attack.row) -> r.runs);
          ]
        rows;
    ];
  (* The scorecard's headline claims are regressions, not observations:
     fail the run if they stop holding. *)
  let find protocol attack =
    match
      List.find_opt
        (fun (r : Explore.Attack.row) ->
          String.equal r.protocol protocol && String.equal r.attack attack)
        rows
    with
    | Some r -> r
    | None -> failwith (Printf.sprintf "attack: missing row %s/%s" protocol attack)
  in
  let full_eclipse = Explore.Attack.kind_label (Eclipse { diversity = 0 }) in
  let f = (n - 1) / 3 in
  let diverse_eclipse =
    Explore.Attack.kind_label (Eclipse { diversity = f + 1 })
  in
  List.iter
    (fun protocol ->
      let r = find protocol full_eclipse in
      (match r.ceiling_tripped with
      | Some "victim-liveness" -> ()
      | other ->
          failwith
            (Printf.sprintf
               "attack: %s under full isolation tripped %s, expected \
                victim-liveness"
               protocol (opt_s other)));
      if Option.is_none r.minimal_budget then
        failwith
          (Printf.sprintf "attack: %s has no eclipse window at diversity 0"
             protocol))
    Explore.Attack.default_protocols;
  (let r = find "lyra" diverse_eclipse in
   match r.minimal_budget with
   | None -> ()
   | Some b ->
       failwith
         (Printf.sprintf
            "attack: %d diverse links should deny lyra's eclipse window, \
             but budget %d tripped %s"
            (f + 1) b (opt_s r.tripped)))

(* ------------------------------------------------------------------ *)
(* ABLATE — sensitivity of the Fig. 3 story to the testbed model.     *)
(*                                                                     *)
(* The paper attributes Pompe's decline to the leader bottleneck and   *)
(* quadratic verification work. If that attribution is right, the      *)
(* leader-based baselines' delivered throughput must track the         *)
(* per-node line rate while Lyra (leaderless, O(1) verifications per   *)
(* message) barely moves. The sweep varies the modelled WAN bandwidth  *)
(* at n = 31 under the same saturating load.                           *)
(* ------------------------------------------------------------------ *)

let ablate () =
  let n = small_n 31 in
  let specs = saturation_specs () in
  let runs =
    List.map
      (fun (label, ns_per_byte) ->
        ( label,
          ns_per_byte,
          List.map
            (fun (_, p, rate, extra) ->
              let r =
                Harness.Scenario.run p ~n ~ns_per_byte
                  ~load:(Harness.Scenario.Open_rate (rate n))
                  ~duration_us:(scale_dur 3_000_000 + extra)
                  ()
              in
              check_smoke_commits "ablate" r;
              r.throughput_tps)
            specs ))
      (sweep [ ("1 Gb/s", 8); ("200 Mb/s", 40); ("50 Mb/s", 160) ])
  in
  emit "ABLATE"
    ~title:
      "ABLATE  per-node bandwidth sweep at n=31 (the leader-based baselines \
       track the leader's line rate; Lyra does not)"
    [
      field "n" Metrics.Table.int n;
      section "rows"
        Metrics.Table.(
          col "line_rate" str (fun (label, _, _) -> label)
          :: col "ns_per_byte" int (fun (_, ns_per_byte, _) -> ns_per_byte)
          :: List.mapi
               (fun i (name, _, _, _) ->
                 col (name ^ "_tps") (num 0) (fun (_, _, tps) -> List.nth tps i))
               specs)
        runs;
    ]

(* ------------------------------------------------------------------ *)
(* SIMSPEED — self-benchmark of the simulator substrate.               *)
(*                                                                     *)
(* Two measurements, tracked as a schema-stable artifact so the perf   *)
(* trajectory is visible across PRs and regressions fail loudly:       *)
(*                                                                     *)
(* 1. Scheduler: the identical synthetic schedule (seeded fill, then   *)
(*    pop-and-reschedule under a large pending population) driven      *)
(*    through the retired binary heap and through the timing wheel     *)
(*    that replaced it inside Sim.Engine — the in-PR pre-refactor      *)
(*    baseline for the wheel's speedup.                                *)
(* 2. Engine: a synthetic broadcast storm through the full             *)
(*    engine/NIC/wire/CPU stack, reporting events/sec, per-layer       *)
(*    event counts (the Sim.Profile taxonomy) and peak RSS.            *)
(* ------------------------------------------------------------------ *)

(* One pass of the synthetic schedule: [pending] seeded pushes, then
   [ops] pop-and-reschedules (each popped entry is re-pushed at a
   seeded offset from its pop time — the engine contract), then a full
   drain. Returns (elapsed seconds, events processed). Both structures
   consume the identical delta sequence; the RNG draws happen outside
   the timed region so only scheduler cost is measured. *)
let sched_workload ~pending ~ops ~push ~pop q =
  let rng = Crypto.Rng.create 0xD15CL in
  (* Fill range scales with the population (1 entry/µs) so the schedule
     density — what the wheel's bucket sizes depend on — stays constant
     across bench sizes; only the population depth grows. *)
  let fill = Array.init pending (fun _ -> Crypto.Rng.int rng pending) in
  let deltas = Array.init ops (fun _ -> Crypto.Rng.int rng pending) in
  let t0 = now_wall () in
  for i = 0 to pending - 1 do
    push q ~time:fill.(i) i
  done;
  for i = 0 to ops - 1 do
    match pop q with
    | Some (t, _) -> push q ~time:(t + deltas.(i)) i
    | None -> ()
  done;
  let rec drain () = match pop q with Some _ -> drain () | None -> () in
  drain ();
  (now_wall () -. t0, (2 * pending) + (2 * ops))

let simspeed () =
  let pending = if !smoke then 50_000 else 1_000_000 in
  let ops = if !smoke then 200_000 else 2_000_000 in
  (* Best of three passes per structure, each from a fresh structure
     and a settled heap, so one badly-timed major collection cannot
     swing the ratio. *)
  let best_of run =
    let best = ref infinity and events = ref 0 in
    for _ = 1 to 3 do
      Gc.full_major ();
      let s, ev = run () in
      events := ev;
      if s < !best then best := s
    done;
    (!best, !events)
  in
  let heap_s, events =
    best_of (fun () ->
        sched_workload ~pending ~ops ~push:Sim.Event_heap.push
          ~pop:Sim.Event_heap.pop
          (Sim.Event_heap.create ()))
  in
  let wheel_s, _ =
    best_of (fun () ->
        sched_workload ~pending ~ops ~push:Sim.Timing_wheel.push
          ~pop:Sim.Timing_wheel.pop
          (Sim.Timing_wheel.create ()))
  in
  let heap_eps = float_of_int events /. heap_s in
  let wheel_eps = float_of_int events /. wheel_s in
  let speedup = wheel_eps /. heap_eps in
  (* Engine storm: n nodes, each broadcasting every millisecond on the
     paper's regional latency model — every message pays NIC, wire and
     receiver-CPU events, so all engine layers show up in the counts. *)
  let n = if !smoke then 16 else 100 in
  let duration_us = if !smoke then 200_000 else 400_000 in
  let engine = Sim.Engine.create () in
  let latency =
    Sim.Latency.regional ~jitter:0.01 (Sim.Regions.paper_placement n)
  in
  let net =
    Sim.Network.create engine ~n ~latency
      ~cost:(fun ~dst:_ _ -> 2)
      ~size:(fun _ -> 256)
      ()
  in
  let received = ref 0 in
  for i = 0 to n - 1 do
    Sim.Network.register net ~id:i (fun ~src:_ () -> incr received)
  done;
  for i = 0 to n - 1 do
    let rec tick () =
      Sim.Network.broadcast net ~src:i ();
      if Sim.Engine.now engine < duration_us then
        ignore (Sim.Engine.schedule engine ~delay:1_000 tick : Sim.Engine.timer)
    in
    ignore (Sim.Engine.schedule engine ~delay:(1 + i) tick : Sim.Engine.timer)
  done;
  let t0 = now_wall () in
  Sim.Engine.run_until_idle engine;
  let engine_s = now_wall () -. t0 in
  let engine_events = Sim.Engine.events_executed engine in
  let engine_eps = float_of_int engine_events /. engine_s in
  let by_kind = Sim.Engine.executed_by_kind engine in
  let rss = peak_rss_kb () in
  emit "SIMSPEED"
    ~title:
      (Printf.sprintf
         "SIMSPEED  scheduler microbench (%d pending, %d reschedule ops) and \
          engine storm (n=%d)"
         pending ops n)
    Metrics.Table.
      [
        single "scheduler"
          [
            col "pending" int (fun () -> pending);
            col "ops" int (fun () -> ops);
            col "events" int (fun () -> events);
            col "heap_events_per_sec" (num 0) (fun () -> heap_eps);
            col "wheel_events_per_sec" (num 0) (fun () -> wheel_eps);
            col "speedup" (num 2) (fun () -> speedup);
          ]
          ();
        single "engine"
          [
            col "n" int (fun () -> n);
            col "duration_us" int (fun () -> duration_us);
            col "events" int (fun () -> engine_events);
            col "wall_s" (num 3) (fun () -> engine_s);
            col "events_per_sec" (num 0) (fun () -> engine_eps);
            col "deliveries" int (fun () -> !received);
            col "by_kind"
              (rows [ col "kind" str fst; col "count" int snd ])
              (fun () -> by_kind);
          ]
          ();
        field "peak_rss_kb" int rss;
      ];
  if speedup < 5.0 then
    Printf.printf
      "SIMSPEED WARNING: wheel speedup %.2fx below the 5x floor — scheduler \
       regression?\n%!"
      speedup

(* ------------------------------------------------------------------ *)
(* MICRO — Bechamel microbenchmarks of the crypto substrate.           *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let rng = Crypto.Rng.create 42L in
  let kp = Crypto.Keys.generate rng ~id:0 in
  let msg = Crypto.Rng.bytes rng 256 in
  let signature = Crypto.Schnorr.sign kp msg in
  let payload = Crypto.Rng.bytes rng 1024 in
  let secret = Crypto.Group.Scalar.random rng in
  let a = Crypto.Field.random rng and b = Crypto.Field.random rng in
  let cipher, shares = Crypto.Vss.encrypt rng ~n:16 ~threshold:11 payload in
  let share_subset = Array.to_list (Array.sub shares 0 11) in
  let leaves = List.init 64 string_of_int in
  let tests =
    [
      Test.make ~name:"field.mul" (Staged.stage (fun () -> Crypto.Field.mul a b));
      Test.make ~name:"field.inv" (Staged.stage (fun () -> Crypto.Field.inv a));
      Test.make ~name:"sha256.1kb"
        (Staged.stage (fun () -> Crypto.Sha256.digest payload));
      Test.make ~name:"schnorr.sign"
        (Staged.stage (fun () -> Crypto.Schnorr.sign kp msg));
      Test.make ~name:"schnorr.verify"
        (Staged.stage (fun () -> Crypto.Schnorr.verify ~pk:kp.pk msg signature));
      Test.make ~name:"shamir.deal.16"
        (Staged.stage (fun () ->
             Crypto.Feldman.Sharing.share rng ~secret ~threshold:11 ~n:16));
      Test.make ~name:"vss.encrypt.1kb.16"
        (Staged.stage (fun () ->
             Crypto.Vss.encrypt rng ~n:16 ~threshold:11 payload));
      Test.make ~name:"vss.decrypt.1kb"
        (Staged.stage (fun () -> Crypto.Vss.decrypt cipher share_subset));
      Test.make ~name:"merkle.root.64"
        (Staged.stage (fun () -> Crypto.Merkle.root_of_leaves leaves));
    ]
  in
  let quota = if !smoke then 0.05 else 0.3 in
  let estimates =
    List.concat_map
      (fun test ->
        let cfg =
          Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~kde:None ()
        in
        let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
        let ols =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false
               ~predictors:[| Measure.run |])
            Toolkit.Instance.monotonic_clock results
        in
        (* bechamel returns one single-entry table per benchmark here, so
           traversal order cannot affect the output. lint: allow D001 *)
        Hashtbl.fold
          (fun name result acc ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> (name, Some est) :: acc
            | Some _ | None -> (name, None) :: acc)
          ols [])
      tests
  in
  emit "MICRO"
    ~title:"MICRO  crypto substrate (ns/op; informs Sim.Costs calibration)"
    [
      field "quota_s" (Metrics.Table.num 2) quota;
      section "rows"
        Metrics.Table.[ col "bench" str fst; col "ns_per_op" (opt (num 0)) snd ]
        estimates;
    ]

(* ------------------------------------------------------------------ *)

let all =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("rounds", rounds);
    ("lambda", lambda);
    ("batch", batch);
    ("byz", byz);
    ("mev", mev);
    ("fairness", fairness);
    ("workload", workload);
    ("censor", censor);
    ("faults", faults);
    ("attack", attack);
    ("ablate", ablate);
    ("simspeed", simspeed);
    ("micro", micro);
  ]

let () =
  let args =
    List.filter
      (fun a ->
        if a = "--smoke" then begin
          smoke := true;
          false
        end
        else true)
      (List.tl (Array.to_list Sys.argv))
  in
  let targets = match args with [] -> List.map fst all | names -> names in
  (match List.filter (fun name -> not (List.mem_assoc name all)) targets with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown experiment %s (have: %s)\n"
        (String.concat ", " unknown)
        (String.concat ", " (List.map fst all));
      exit 2);
  List.iter
    (fun name ->
      let t0 = now_wall () in
      (List.assoc name all) ();
      Printf.printf "[%s done in %.1fs]\n%!" name (now_wall () -. t0))
    targets
