(* One benchmark run: a fixed number of cases of one workload, each a
   fresh [Harness.Scenario.run] through the transparent shim, reduced to
   the catalog's metrics. Case [i] runs Scenario seed [seed + i * 10^6],
   so a run is a pure function of its seed and case count.

   Host times are in reference seconds (see [Speed]). Untraced runs
   report the end-to-end metrics as medians over cases.
   A traced run repeats case 0 with the runtime-events ring on and
   reports the per-layer metrics of that traced repeat, after checking
   that its simulated outcome is bit-identical to the untraced one. *)

type case = {
  result : Harness.Scenario.result;
  probe : Shim.t;
  opened : Shim.counters;
  closed : Shim.counters;
  started_s : float;
  finished_s : float;
  tally : Ledger.tally;
  speed_from : Speed.mark;
  speed_to : Speed.mark;
  probe_us : float;  (** mean speed-kernel time over the case *)
  gc_window_s : (float * float) option;
      (** traced cases: (minor, major) GC seconds inside the window *)
  gc_lost : int;
}

let case_seed seed i = Int64.add seed (Int64.mul (Int64.of_int i) 1_000_000L)

let run_case ?gc (w : Workloads.t) ~seed =
  (* Each case starts from a collected heap, whatever ran before it. *)
  Gc.full_major ();
  let pr = Shim.create () in
  let marks = ref [] in
  (match gc with
  | None -> ()
  | Some g ->
      let calls = ref 0 in
      pr.tick <-
        (fun () ->
          incr calls;
          if !calls land 63 = 0 then Gc_trace.poll g);
      pr.boundary <-
        (fun () ->
          Gc_trace.poll g;
          marks :=
            ( Gc_trace.seconds g Runtime_events.EV_MINOR,
              Gc_trace.seconds g Runtime_events.EV_MAJOR )
            :: !marks));
  let ((module P : Protocol.NODE) as p) = Workloads.protocol w in
  let faults = Workloads.faults w ~warmup_us:P.default_warmup_us in
  let lost_before = Option.fold ~none:0 ~some:Gc_trace.lost gc in
  let speed_from = Speed.mark () in
  Speed.sample ();
  Speed.start ();
  pr.entered_s <- Shim.clock ();
  let result =
    Harness.Scenario.run ~seed ~faults (Shim.wrap pr p) ~n:w.n ~load:w.load
      ~duration_us:w.window_us ()
  in
  let finished_s = Shim.clock () in
  Speed.stop ();
  Speed.sample ();
  let speed_to = Speed.mark () in
  Option.iter Gc_trace.poll gc;
  match (pr.opened, pr.closed, pr.started_s, Speed.mean_us speed_from speed_to) with
  | Some opened, Some closed, Some started_s, Some probe_us ->
      let gc_window_s =
        match !marks with
        | [ (mi1, ma1); (mi0, ma0) ] -> Some (mi1 -. mi0, ma1 -. ma0)
        | _ -> None
      in
      {
        result;
        probe = pr;
        opened;
        closed;
        started_s;
        finished_s;
        tally =
          Ledger.tally pr.ledger ~window_start_us:opened.sim_us
            ~window_end_us:closed.sim_us ~limit_us:w.limit_us;
        speed_from;
        speed_to;
        probe_us;
        gc_window_s;
        gc_lost = Option.fold ~none:0 ~some:Gc_trace.lost gc - lost_before;
      }
  | _ -> failwith "perfbench: the harness never opened and closed its window"

(* ---- correctness gate ------------------------------------------------ *)

let min_window_commits = 200

let gate (c : case) =
  let r = c.result in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some what)
    [
      (r.prefix_safe, "honest logs are not prefixes of each other");
      (Option.is_none r.first_violation, "invariant monitor reported a violation");
      (Int.equal r.late_accepts 0, "late_accepts > 0");
      ( r.committed_txs >= min_window_commits,
        Printf.sprintf "%d window commits < %d" r.committed_txs
          min_window_commits );
      (c.tally.attempted > 0, "no transaction was attempted");
      ( (match r.fairness with Some f -> f.pairs > 0 | None -> false),
        "no decided pair to score for fairness" );
    ]

(* ---- helpers --------------------------------------------------------- *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> None
  | s ->
      let a = Array.of_list s in
      let k = Array.length a in
      Some (if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.)

(* [Some] of every case's value, or [None] when any case has none: a
   median over a partial set would hide the empty sample. *)
let median_all f cases =
  let vs = List.map f cases in
  if List.for_all Option.is_some vs then median (List.filter_map Fun.id vs)
  else None

let ratio a b = if b > 0. then Some (a /. b) else None

let fi = float_of_int

(* Host seconds from [t0] to [t1], in reference seconds: scaled by the
   speed probe's mean between marks [a] and [b], which cover the same
   interval. Not a number when no sample fell inside it, so that the
   metric is reported empty. *)
let scaled a b t0 t1 =
  match Speed.factor a b with Some f -> (t1 -. t0) *. f | None -> nan

let wall_s c = scaled c.speed_from c.speed_to c.probe.entered_s c.finished_s

let setup_s c =
  scaled c.speed_from c.opened.speed c.probe.entered_s c.opened.host_s

let window_s c =
  scaled c.opened.speed c.closed.speed c.opened.host_s c.closed.host_s

let commits c = fi c.result.committed_txs

(* ---- end-to-end metrics ---------------------------------------------- *)

(* What a case contributes to the end-to-end metrics and to the
   traced-vs-untraced comparison. Runs keep summaries, not cases: a case
   holds its whole simulated cluster, and keeping those alive would
   inflate the peak heap of every later case. *)
type summary = {
  wall_s : float;
  setup_s : float;
  window_s : float;
  committed : int;
  latency_ms : float array;  (** window samples, in record order *)
  throughput_tps : float;
  fairness : (int * int) option;  (** inversions, pairs *)
  messages : int;
  bytes : int;
  events : int;
  tally : Ledger.tally;
  logs_digest : Digest.t;  (** of every honest (key, content digest) log *)
  gate : string list;
}

let summarise c =
  let r = c.result in
  {
    wall_s = wall_s c;
    setup_s = setup_s c;
    window_s = window_s c;
    committed = r.committed_txs;
    latency_ms = Metrics.Recorder.to_array r.latency_ms;
    throughput_tps = r.throughput_tps;
    fairness =
      Option.map (fun (f : Fairness.report) -> (f.inversions, f.pairs)) r.fairness;
    messages = r.messages;
    bytes = r.bytes;
    events = c.closed.events;
    tally = c.tally;
    logs_digest = Digest.string (Marshal.to_string r.honest_logs []);
    gate = gate c;
  }

(* A traced repeat must reproduce the untraced simulation exactly. *)
let same_simulation a b =
  { a with wall_s = 0.; setup_s = 0.; window_s = 0. }
  = { b with wall_s = 0.; setup_s = 0.; window_s = 0. }

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

let sample_percentile q xs =
  if Array.length xs = 0 then None
  else Some (Metrics.Stats.percentile_sorted q (Metrics.Stats.sorted_copy xs))

(* The result line's transaction counts. A case that fails its gate
   counts every attempted transaction as failed. *)
let counts summaries =
  List.fold_left
    (fun (a, f) s ->
      let failed = if List.is_empty s.gate then s.tally.failed else s.tally.attempted in
      (a + s.tally.attempted, f + failed))
    (0, 0) summaries

(* Host times are medians over cases. Simulated metrics pool the cases'
   windows, which all have the same length: one latency sample set, mean
   throughput, inversions over pairs, and failed over attempted. *)
let end_to_end summaries =
  let all_cases f = if List.for_all f summaries then Some () else None in
  let per f = median_all f summaries in
  let latency q =
    Option.bind
      (all_cases (fun s -> Array.length s.latency_ms > 0))
      (fun () ->
        sample_percentile q (Array.concat (List.map (fun s -> s.latency_ms) summaries)))
  in
  let inversions, pairs =
    List.fold_left
      (fun (i, p) s ->
        match s.fairness with Some (si, sp) -> (i + si, p + sp) | None -> (i, p))
      (0, 0) summaries
  in
  let attempted, failed = counts summaries in
  [
    ("wall_s", per (fun s -> Some s.wall_s));
    ("setup_s", per (fun s -> Some s.setup_s));
    ("host_us_per_tx", per (fun s -> ratio (s.window_s *. 1e6) (fi s.committed)));
    ("peak_heap_mb", Some (peak_heap_mb ()));
    ("sim_latency_p50_ms", latency 50.);
    ("sim_latency_p90_ms", latency 90.);
    ( "sim_throughput_tps",
      Option.bind
        (all_cases (fun s -> s.committed > 0))
        (fun () ->
          Some
            (List.fold_left (fun a s -> a +. s.throughput_tps) 0. summaries
            /. fi (List.length summaries))) );
    ( "tx_on_time_share",
      Option.map (fun share -> 1. -. share) (ratio (fi failed) (fi attempted)) );
    ( "fairness_inversion_rate",
      Option.bind
        (all_cases (fun s ->
             match s.fairness with Some (_, p) -> p > 0 | None -> false))
        (fun () -> ratio (fi inversions) (fi pairs)) );
  ]

(* ---- per-layer metrics ------------------------------------------------ *)

(* Host seconds of [f ()], re-timed outside the run. *)
let retime f =
  let t0 = Shim.clock () in
  ignore (Sys.opaque_identity (f ()));
  Shim.clock () -. t0

let longest logs =
  Array.fold_left
    (fun best l -> if List.length l > List.length best then l else best)
    [] logs

(* Simulated time from the crashed node's recovery until its log holds
   every batch any other honest node had output by then. *)
let catchup_ms (w : Workloads.t) c ~warmup_us =
  match (w.crash, Workloads.recover_us w ~warmup_us) with
  | Some crash, Some recover_us ->
      let count_by id t =
        List.length (List.filter (fun at -> at <= t) c.probe.outputs.(id))
      in
      let target =
        Array.fold_left
          (fun acc id ->
            if Int.equal id crash.node then acc else max acc (count_by id recover_us))
          0 c.result.honest_ids
      in
      let mine = List.rev c.probe.outputs.(crash.node) in
      if count_by crash.node recover_us >= target then Some 0.
      else (
        match List.nth_opt mine (target - 1) with
        | Some at -> Some (fi (at - recover_us) /. 1000.)
        | None -> None)
  | _ -> None

let proposal_digest_us ~n logs =
  let sizes =
    List.map (fun (b : Protocol.committed) -> fi (Array.length b.txs)) (longest logs)
  in
  match median sizes with
  | None -> None
  | Some m ->
      let size = max 1 (int_of_float m) in
      let txs =
        Array.init size (fun i ->
            {
              Lyra.Types.tx_id = Printf.sprintf "c0-%d" i;
              payload = "";
              submitted_at = 0;
              origin = 0;
            })
      in
      let proposal =
        {
          Lyra.Types.batch =
            {
              iid = { proposer = 0; index = 1 };
              txs;
              obf = Lyra.Types.Structural;
              created_at = 1_000_000;
            };
          st = Array.init n (fun i -> Some (1_000_000 + i));
        }
      in
      let iters = 2_000 in
      let samples =
        List.init 5 (fun _ ->
            retime (fun () ->
                for _ = 1 to iters do
                  ignore (Sys.opaque_identity (Lyra.Types.proposal_digest proposal))
                done))
      in
      Option.map (fun s -> s *. 1e6 /. fi iters) (median samples)

let busy_shares (before : int array) (after : int array) ~window_us =
  let k = Array.length after in
  let shares =
    Array.init k (fun i -> fi (after.(i) - before.(i)) /. fi window_us)
  in
  ( Array.fold_left Float.max 0. shares,
    Array.fold_left ( +. ) 0. shares /. fi (max 1 k) )

let per_layer (w : Workloads.t) ~reference_wall_s (c : case) =
  let r = c.result in
  let o = c.opened and e = c.closed in
  let window_us = e.sim_us - o.sim_us in
  let d f = fi (f e - f o) in
  let dgc f = f e.gc -. f o.gc in
  let kind k (x : Shim.counters) = Option.value ~default:0 (List.assoc_opt k x.by_kind) in
  let events = d (fun x -> x.events) in
  let logs = c.probe.logs () in
  let honest_logs = Array.map (fun id -> logs.(id)) r.honest_ids in
  let decided = List.map (fun (b : Protocol.committed) -> b.key) (longest honest_logs) in
  let score_s = retime (fun () -> Fairness.score ~decided ~received:r.receive_logs ()) in
  let merkle_s =
    retime (fun () ->
        Array.map
          (List.map (fun (b : Protocol.committed) ->
               Crypto.Merkle.root_of_leaves
                 (Array.to_list
                    (Array.map
                       (fun (tx : Lyra.Types.tx) -> tx.tx_id ^ ":" ^ tx.payload)
                       b.txs))))
          honest_logs)
  in
  let cpu_max, cpu_mean = busy_shares o.cpu_busy_us e.cpu_busy_us ~window_us in
  let nic_max, nic_mean = busy_shares o.nic_busy_us e.nic_busy_us ~window_us in
  let minor_words = dgc (fun g -> g.Gc.minor_words) in
  let promoted = dgc (fun g -> g.Gc.promoted_words) in
  let allocated = minor_words +. dgc (fun g -> g.Gc.major_words) -. promoted in
  let phase label q =
    match List.assoc_opt label r.phases with
    | Some rc -> sample_percentile q (Metrics.Recorder.to_array rc)
    | None -> None
  in
  let phases =
    List.concat_map
      (fun label ->
        List.map
          (fun (q, p) -> (Catalog.phase_name label q, phase label p))
          [ ("p50", 50.); ("p90", 90.) ])
      Catalog.phase_label_set
  in
  let (module P : Protocol.NODE) = Workloads.protocol w in
  [
    ("harness.build_s", Some (scaled c.speed_from o.speed c.probe.entered_s c.started_s));
    ("harness.warmup_s", Some (scaled c.speed_from o.speed c.started_s o.host_s));
    ("harness.window_s", Some (window_s c));
    ("harness.score_s", Some (scaled e.speed c.speed_to e.host_s c.finished_s));
    ("harness.window_alloc_mw", Some (allocated /. 1e6));
    ("sim.engine.events", Some events);
    ("sim.engine.events_per_tx", ratio events (commits c));
    ("sim.engine.events_per_s", ratio events (window_s c));
    ("sim.engine.wire", Some (d (kind "wire")));
    ("sim.engine.cpu_job", Some (d (kind "cpu")));
    ("sim.engine.nic_tx", Some (d (kind "nic")));
    ("sim.engine.timer", Some (d (kind "timer")));
    ("sim.network.messages", Some (d (fun x -> x.messages)));
    ("sim.network.bytes", Some (d (fun x -> x.bytes)));
    ("sim.network.msgs_per_tx", ratio (d (fun x -> x.messages)) (commits c));
    ("sim.network.bytes_per_tx", ratio (d (fun x -> x.bytes)) (commits c));
    ("sim.network.dropped", Some (d (fun x -> x.dropped)));
    ("sim.network.dup", Some (d (fun x -> x.dup)));
    ("sim.cpu.busy_max", Some cpu_max);
    ("sim.cpu.busy_mean", Some cpu_mean);
    ("sim.nic.busy_max", Some nic_max);
    ("sim.nic.busy_mean", Some nic_mean);
    ("protocol.accept_rate", Some r.accept_rate);
    (* Decision rounds start at 1, so a 0 mean is an empty sample. *)
    ( "protocol.decide_rounds_mean",
      if r.decide_rounds > 0. then Some r.decide_rounds else None );
    ("protocol.late_accepts", Some (fi r.late_accepts));
  ]
  @ phases
  @ [
      ("fairness.score_s", Some score_s);
      ("fairness.keys", Some (fi (List.length decided)));
      ("crypto.merkle_s", Some merkle_s);
      ("crypto.proposal_digest_us", proposal_digest_us ~n:w.n honest_logs);
      ("gc.minor_s", Option.map fst c.gc_window_s);
      ("gc.major_s", Option.map snd c.gc_window_s);
      ("gc.minor_collections", Some (fi (e.gc.minor_collections - o.gc.minor_collections)));
      ("gc.major_collections", Some (fi (e.gc.major_collections - o.gc.major_collections)));
      ("gc.alloc_words_per_event", ratio allocated events);
      ("gc.promoted_share", ratio promoted minor_words);
      ("workload.submitted", Some (fi c.tally.submitted));
      ("workload.attempted", Some (fi c.tally.attempted));
      ("workload.failed", Some (fi c.tally.failed));
      ("workload.failed_share", ratio (fi c.tally.failed) (fi c.tally.attempted));
      ("workload.window_commits", Some (commits c));
      ("recovery.catchup_ms", catchup_ms w c ~warmup_us:P.default_warmup_us);
      ("trace.overhead_share", Some ((wall_s c /. reference_wall_s) -. 1.));
      ("host.probe_us", Some c.probe_us);
    ]
