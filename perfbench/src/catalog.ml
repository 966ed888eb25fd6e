(* Every metric the benchmark reports, declared once: its unit, which
   direction is better, the regression bound (end-to-end metrics only),
   and — for per-layer metrics — the end-to-end metric and workload it
   should move. BENCHMARK.json, the human table, the last-line JSON and
   the traced report are all checked against this list. *)

type better = Lower | Higher

type t = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
  moves : string;  (** end-to-end metric(s) a change here should move *)
  on : string;  (** workload(s) where it should show *)
  applies : Workloads.t -> bool;
}

let better_name = function Lower -> "lower" | Higher -> "higher"

let valid_name s =
  String.length s > 0
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let always _ = true

let e2e name unit better bound =
  { name; unit; better; bound = Some bound; moves = ""; on = ""; applies = always }

(* Host times are scaled to a reference machine speed (see [Speed]) but
   still vary with the seed's work and the probe's residual error, hence
   the widest bound; simulated metrics are exact for a seed but vary
   across seeds, Pompe's p90 and inversion rate most (10-seed spreads of
   12%). *)
let end_to_end =
  [
    e2e "wall_s" "s" Lower 0.25;
    e2e "setup_s" "s" Lower 0.25;
    e2e "host_us_per_tx" "us" Lower 0.25;
    e2e "peak_heap_mb" "MB" Lower 0.2;
    e2e "sim_latency_p50_ms" "ms" Lower 0.15;
    e2e "sim_latency_p90_ms" "ms" Lower 0.25;
    e2e "sim_throughput_tps" "tx/s" Higher 0.2;
    e2e "tx_on_time_share" "ratio" Higher 0.05;
    e2e "fairness_inversion_rate" "ratio" Lower 0.25;
  ]

let layer ?(applies = always) ?(better = Lower) name unit ~moves ~on =
  { name; unit; better; bound = None; moves; on; applies }

let all_workloads = "all"

(* The adapters' phase labels, in pipeline order. *)
let phase_labels =
  [
    ("lyra", [ "vvb_deliver"; "dbft_decide"; "boc_decide"; "accept_wait"; "reveal"; "e2e" ]);
    ("pompe", [ "order"; "consensus"; "stable_exec"; "e2e" ]);
    ("dag", [ "wave"; "e2e" ]);
  ]

let phase_label_set =
  List.fold_left
    (fun acc (_, ls) ->
      List.fold_left (fun acc l -> if List.mem l acc then acc else acc @ [ l ]) acc ls)
    [] phase_labels

let phase_name label q = Printf.sprintf "phase.%s.%s_ms" label q

(* One p50 and one p90 metric per distinct label ([e2e] is shared). *)
let phase_metrics =
  List.concat_map
    (fun label ->
      let protos =
        List.filter_map
          (fun (p, ls) -> if List.mem label ls then Some p else None)
          phase_labels
      in
      let applies (w : Workloads.t) = List.mem w.protocol protos in
      let on = String.concat "," protos ^ " workloads" in
      List.map
        (fun q -> layer ~applies (phase_name label q) "ms" ~moves:"sim_latency_p50_ms" ~on)
        [ "p50"; "p90" ])
    phase_label_set

let per_layer =
  let host = "host_us_per_tx" in
  [
    layer "harness.build_s" "s" ~moves:"setup_s" ~on:all_workloads;
    layer "harness.warmup_s" "s" ~moves:"setup_s"
      ~on:"lyra-n31-closed (little effect on pompe-n100-closed)";
    layer "harness.window_s" "s" ~moves:"wall_s,host_us_per_tx" ~on:all_workloads;
    layer "harness.score_s" "s" ~moves:"wall_s"
      ~on:"pompe-n100-closed (<1% of lyra-n31-closed)";
    layer "harness.window_alloc_mw" "Mwords" ~moves:host ~on:all_workloads;
    layer "sim.engine.events" "count" ~moves:host ~on:"all, isolated best by pompe-n100-closed";
    layer "sim.engine.events_per_tx" "count" ~moves:host ~on:all_workloads;
    layer ~better:Higher "sim.engine.events_per_s" "1/s" ~moves:host ~on:all_workloads;
    layer "sim.engine.wire" "count" ~moves:host ~on:all_workloads;
    layer "sim.engine.cpu_job" "count" ~moves:host ~on:all_workloads;
    layer "sim.engine.nic_tx" "count" ~moves:host ~on:all_workloads;
    layer "sim.engine.timer" "count" ~moves:host ~on:all_workloads;
    layer "sim.network.messages" "count" ~moves:host
      ~on:"lyra-n31-closed far more than lyra-n16-open-crash";
    layer "sim.network.bytes" "bytes" ~moves:host ~on:"lyra-n31-closed";
    layer "sim.network.msgs_per_tx" "count" ~moves:host ~on:"lyra-n31-closed";
    layer "sim.network.bytes_per_tx" "bytes" ~moves:host ~on:"lyra-n31-closed";
    layer "sim.network.dropped" "count" ~moves:"tx_on_time_share"
      ~on:"lyra-n16-open-crash (0 elsewhere)";
    layer "sim.network.dup" "count" ~moves:"tx_on_time_share"
      ~on:"lyra-n16-open-crash (0 elsewhere)";
    layer "sim.cpu.busy_max" "ratio" ~moves:"sim_latency_p90_ms"
      ~on:"pompe-n100-closed";
    layer "sim.cpu.busy_mean" "ratio" ~moves:"sim_latency_p90_ms"
      ~on:"pompe-n100-closed";
    layer "sim.nic.busy_max" "ratio" ~moves:"sim_latency_p90_ms"
      ~on:"lyra-n31-closed";
    layer "sim.nic.busy_mean" "ratio" ~moves:"sim_latency_p90_ms"
      ~on:"lyra-n31-closed";
    layer ~better:Higher "protocol.accept_rate" "ratio" ~moves:"sim_latency_p50_ms"
      ~on:"same protocol's workloads";
    layer
      ~applies:(fun (w : Workloads.t) -> not (String.equal w.protocol "pompe"))
      "protocol.decide_rounds_mean" "rounds" ~moves:"sim_latency_p50_ms"
      ~on:"lyra and dag workloads";
    layer "protocol.late_accepts" "count" ~moves:"correctness gate (must be 0)"
      ~on:all_workloads;
  ]
  @ phase_metrics
  @ [
      layer "fairness.score_s" "s" ~moves:"wall_s"
        ~on:"pompe-n100-closed, dag-n61-closed";
      layer ~better:Higher "fairness.keys" "count" ~moves:"wall_s"
        ~on:"pompe-n100-closed, dag-n61-closed";
      layer "crypto.merkle_s" "s" ~moves:host ~on:"lyra workloads only";
      layer "crypto.proposal_digest_us" "us" ~moves:host ~on:"lyra workloads only";
      layer "gc.minor_s" "s" ~moves:host ~on:all_workloads;
      layer "gc.major_s" "s" ~moves:"host_us_per_tx,peak_heap_mb"
        ~on:"all, peak heap on dag-n61-closed";
      layer "gc.minor_collections" "count" ~moves:host ~on:all_workloads;
      layer "gc.major_collections" "count" ~moves:"host_us_per_tx,peak_heap_mb"
        ~on:"all, peak heap on dag-n61-closed";
      layer "gc.alloc_words_per_event" "words" ~moves:host ~on:all_workloads;
      layer "gc.promoted_share" "ratio" ~moves:"host_us_per_tx,peak_heap_mb"
        ~on:"dag-n61-closed";
      layer ~better:Higher "workload.submitted" "count"
        ~moves:"tx_on_time_share (its base)" ~on:all_workloads;
      layer ~better:Higher "workload.attempted" "count"
        ~moves:"tx_on_time_share (its base)" ~on:all_workloads;
      layer "workload.failed" "count" ~moves:"tx_on_time_share" ~on:all_workloads;
      layer "workload.failed_share" "ratio" ~moves:"tx_on_time_share"
        ~on:all_workloads;
      layer ~better:Higher "workload.window_commits" "count"
        ~moves:"sim_throughput_tps (the percentile sample count)"
        ~on:all_workloads;
      layer
        ~applies:(fun w -> Option.is_some w.Workloads.crash)
        "recovery.catchup_ms" "ms"
        ~moves:"sim_latency_p90_ms,tx_on_time_share" ~on:"lyra-n16-open-crash";
      layer "trace.overhead_share" "ratio" ~moves:"none (tracing cost)"
        ~on:all_workloads;
      layer "host.probe_us" "us"
        ~moves:"none (machine speed: host times are scaled by reference / probe)"
        ~on:all_workloads;
    ]
