(* Geo-distribution exploration: how cluster size and client load move
   Lyra's commit latency across the paper's three-continent deployment,
   and where the latency goes (BOC rounds vs the L = 3Δ acceptance
   window of the Commit protocol).

       dune exec examples/geo_latency.exe *)

let () =
  Printf.printf
    "Lyra across Oregon / Ireland / Sydney; closed-loop clients per node.\n\n";
  let runs =
    List.concat_map
      (fun n ->
        List.map
          (fun clients ->
            let r =
              Harness.Scenario.run
                (Protocol.Lyra_adapter.make ())
                ~n ~load:(Harness.Scenario.Closed clients) ~duration_us:3_000_000 ()
            in
            assert (r.prefix_safe && r.late_accepts = 0);
            (clients, r))
          [ 1; 4 ])
      [ 4; 7; 16 ]
  in
  let res f (_, (r : Harness.Scenario.result)) = f r in
  let latency p = res (fun r -> Metrics.Recorder.percentile p r.latency_ms) in
  Metrics.Table.(
    print ~title:"Lyra geo-latency"
      [
        col "n" int (res (fun r -> r.n));
        col "clients" int fst;
        col "tx/s" (num 0) (res (fun r -> r.throughput_tps));
        col "p50 ms" (num 0) (latency 50.0);
        col "p95 ms" (num 0) (latency 95.0);
        col "rounds" (num 2) (res (fun r -> r.decide_rounds));
      ]
      runs);
  let cfg = Lyra.Config.default ~n:16 in
  Printf.printf
    "\nLatency anatomy: ~3 one-way delays for BOC (Thm 3), then the commit\n\
     protocol waits out the acceptance window L = 3 Delta = %d ms before a\n\
     prefix can stabilize, plus one delay for the reveal quorum.\n"
    (Lyra.Config.l_us cfg / 1000);
  print_endline "geo_latency OK"
