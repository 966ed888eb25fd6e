(* The fairness metrics suite (lib/fairness) and its live scorecard:
   the inversion counter's extremes and symmetry, the decided-rank
   projection, γ-batch-order monotonicity, seeded reproducibility of
   the whole report across every registered protocol, and the pinned
   n=16 scorecard row — the timestamp-ordered protocols (lyra, dag)
   must beat the leader-based baselines on inversion rate under the
   MEV-searcher (sandwich) workload. *)

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Crypto.Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pairs_of k = k * (k - 1) / 2

(* ------------------------------------------------------------------ *)
(* The merge-sort inversion counter.                                   *)
(* ------------------------------------------------------------------ *)

let test_inversion_extremes () =
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "identity k=%d" k)
        0
        (Fairness.count_inversions (Array.init k (fun i -> i)));
      Alcotest.(check int)
        (Printf.sprintf "reversal k=%d" k)
        (pairs_of k)
        (Fairness.count_inversions (Array.init k (fun i -> k - 1 - i))))
    [ 0; 1; 2; 3; 10; 64; 257 ]

let prop_inversion_symmetric =
  QCheck.Test.make
    ~name:"inversions: inv(p) + inv(reverse p) = C(k,2) on permutations"
    ~count:300
    QCheck.(int_bound 0xFF_FFFF)
    (fun seed ->
      let rng = Crypto.Rng.create (Int64.of_int seed) in
      let k = 2 + Crypto.Rng.int rng 80 in
      let p = Array.init k (fun i -> i) in
      shuffle rng p;
      let rev = Array.init k (fun i -> p.(k - 1 - i)) in
      let inv = Fairness.count_inversions p in
      inv >= 0 && inv <= pairs_of k
      && inv + Fairness.count_inversions rev = pairs_of k)

(* ------------------------------------------------------------------ *)
(* Decided-rank projection: unknown keys and duplicates drop out, so   *)
(* the pair count is exactly C(|decided ∩ received|, 2).               *)
(* ------------------------------------------------------------------ *)

let key sender index = Printf.sprintf "%d/%d" sender index

let prop_projection =
  QCheck.Test.make
    ~name:"inversions: projection drops unknown keys and duplicates"
    ~count:300
    QCheck.(int_bound 0xFF_FFFF)
    (fun seed ->
      let rng = Crypto.Rng.create (Int64.of_int seed) in
      let k = 1 + Crypto.Rng.int rng 30 in
      let decided = List.init k (fun i -> key (i mod 4) (i / 4)) in
      (* received: a shuffle of a random subset of decided, plus
         duplicates and strangers interleaved *)
      let subset =
        List.filter (fun _ -> Crypto.Rng.int rng 4 > 0) decided
      in
      let arr = Array.of_list subset in
      shuffle rng arr;
      let received =
        Array.to_list arr
        |> List.concat_map (fun k ->
               if Crypto.Rng.int rng 3 = 0 then [ k; k ] else [ k ])
        |> List.append [ "stranger/1"; "stranger/2" ]
      in
      let inv, pairs = Fairness.inversions ~decided ~received in
      let identity_inv, identity_pairs =
        Fairness.inversions ~decided ~received:decided
      in
      pairs = pairs_of (List.length subset)
      && inv <= pairs
      && identity_inv = 0
      && identity_pairs = pairs_of k)

(* ------------------------------------------------------------------ *)
(* Logs a buggy or Byzantine run can produce — repeated decided keys,  *)
(* received keys nobody decided, empty logs — never make scoring       *)
(* raise, and a repeated decided key scores as its first occurrence.   *)
(* ------------------------------------------------------------------ *)

let prop_messy_logs =
  QCheck.Test.make
    ~name:"score/inversions: duplicates, strangers and empty logs never raise"
    ~count:300
    QCheck.(int_bound 0xFF_FFFF)
    (fun seed ->
      let rng = Crypto.Rng.create (Int64.of_int seed) in
      (* A 12-key space, so decided logs repeat keys; index 9 marks a
         stranger that no decided log contains. *)
      let log ~strangers =
        List.init (Crypto.Rng.int rng 12) (fun _ ->
            let sender = Crypto.Rng.int rng 3 in
            if strangers && Crypto.Rng.int rng 4 = 0 then key sender 9
            else key sender (Crypto.Rng.int rng 4))
      in
      let decided = log ~strangers:false in
      let received =
        Array.init (Crypto.Rng.int rng 4) (fun _ ->
            List.mapi (fun i k -> (k, i)) (log ~strangers:true))
      in
      let first_only =
        List.rev
          (List.fold_left
             (fun acc k -> if List.mem k acc then acc else k :: acc)
             [] decided)
      in
      let inversions_agree =
        Array.for_all
          (fun l ->
            let received = List.map fst l in
            let inv, pairs = Fairness.inversions ~decided ~received in
            inv <= pairs
            && (inv, pairs) = Fairness.inversions ~decided:first_only ~received)
          received
      in
      let ranks =
        Array.init (Crypto.Rng.int rng 10) (fun _ -> Crypto.Rng.int rng 4)
      in
      let k = Array.length ranks in
      let c = Fairness.count_inversions ranks in
      Fairness.score ~decided ~received ()
      = Fairness.score ~decided:first_only ~received ()
      && inversions_agree && c >= 0
      && c <= pairs_of k)

(* ------------------------------------------------------------------ *)
(* γ-batch-order: tightening γ can only shrink the mandated set, and   *)
(* violations never exceed it.                                         *)
(* ------------------------------------------------------------------ *)

let prop_gamma_monotone =
  QCheck.Test.make ~name:"score: γ-violations are monotone in γ" ~count:200
    QCheck.(int_bound 0xFF_FFFF)
    (fun seed ->
      let rng = Crypto.Rng.create (Int64.of_int seed) in
      let k = 2 + Crypto.Rng.int rng 30 in
      let decided = List.init k (fun i -> key (i mod 4) (i / 4)) in
      let observers = 2 + Crypto.Rng.int rng 3 in
      let received =
        Array.init observers (fun _ ->
            let arr = Array.of_list decided in
            shuffle rng arr;
            Array.to_list arr
            |> List.filter (fun _ -> Crypto.Rng.int rng 5 > 0)
            |> List.mapi (fun i k -> (k, i * 100)))
      in
      let r = Fairness.score ~decided ~received () in
      let rec monotone = function
        | (a : Fairness.gamma_row) :: (b :: _ as tl) ->
            a.gamma < b.gamma
            && a.violations >= b.violations
            && a.mandated >= b.mandated
            && monotone tl
        | [ _ ] | [] -> true
      in
      monotone r.gamma_rows
      && List.for_all
           (fun (g : Fairness.gamma_row) -> g.violations <= g.mandated)
           r.gamma_rows
      && r.inversions <= r.pairs)

(* ------------------------------------------------------------------ *)
(* Live runs: the whole report reproduces bit-identically from the     *)
(* same seed, for every registered protocol.                           *)
(* ------------------------------------------------------------------ *)

let duration_for = function "pompe" -> 8_000_000 | _ -> 2_000_000

let test_report_deterministic () =
  List.iter
    (fun protocol ->
      let run () =
        Testutil.run_scenario ~seed:42L protocol
          ~duration_us:(duration_for protocol)
      in
      let a = run () and b = run () in
      let report (r : Harness.Scenario.result) =
        match r.fairness with
        | Some f -> f
        | None -> Alcotest.failf "%s: no fairness report" protocol
      in
      let fa = report a and fb = report b in
      Alcotest.(check int) (protocol ^ " decided") fa.decided fb.decided;
      Alcotest.(check int) (protocol ^ " inversions") fa.inversions fb.inversions;
      Alcotest.(check bool)
        (protocol ^ " full report bit-identical")
        true (fa = fb);
      Alcotest.(check bool)
        (protocol ^ " receive logs bit-identical")
        true (a.receive_logs = b.receive_logs))
    Protocol.Registry.names

(* ------------------------------------------------------------------ *)
(* The pinned scorecard row (docs/FAIRNESS.md): under the MEV-searcher *)
(* sandwich workload at n=16, the timestamp-ordered protocols commit   *)
(* in an order close to what the network saw — measured inversion      *)
(* rates hold a >4x margin over HotStuff (and Pompē), pinned here at   *)
(* 2x so jitter can't flake the build.                                 *)
(* ------------------------------------------------------------------ *)

let searcher_workload () =
  Workload.Engine.spec
    ~market:{ Workload.Engine.reserve_x = 50_000_000; reserve_y = 50_000_000 }
    ~searcher:
      {
        Workload.Engine.searchers = 3;
        observe_delay_us = 3_000;
        back_delay_us = 2_000;
        front_fraction = 0.5;
        min_victim_amount = 10_000;
      }
    [
      {
        Workload.Engine.name = "amm-users";
        clients = 50_000;
        rate_per_client = 0.0016;
        shape = Workload.Engine.Constant;
        mix = Workload.Engine.Amm_swaps { amount_min = 20_000; amount_max = 80_000 };
      };
    ]

let test_scorecard_pin () =
  let rate protocol =
    let r =
      Harness.Scenario.run ~seed:11L
        (Testutil.get_protocol protocol)
        ~n:16
        ~load:(Harness.Scenario.Closed 0)
        ~workload:(searcher_workload ()) ~duration_us:4_000_000 ()
    in
    Alcotest.(check bool) (protocol ^ " commits") true (r.committed_txs > 0);
    match r.fairness with
    | Some f when f.frontrun_success <> None -> f.inversion_rate
    | Some _ -> Alcotest.failf "%s: searcher flow never engaged" protocol
    | None -> Alcotest.failf "%s: no fairness report" protocol
  in
  let lyra = rate "lyra" and dag = rate "dag" and hotstuff = rate "hotstuff" in
  Alcotest.(check bool)
    (Printf.sprintf "lyra inversion rate (%.4f) < hotstuff/2 (%.4f)" lyra
       (hotstuff /. 2.))
    true
    (lyra < hotstuff /. 2.);
  Alcotest.(check bool)
    (Printf.sprintf "dag inversion rate (%.4f) < hotstuff/2 (%.4f)" dag
       (hotstuff /. 2.))
    true
    (dag < hotstuff /. 2.)

let suite =
  [
    Alcotest.test_case "inversion extremes" `Quick test_inversion_extremes;
    QCheck_alcotest.to_alcotest prop_inversion_symmetric;
    QCheck_alcotest.to_alcotest prop_projection;
    QCheck_alcotest.to_alcotest prop_messy_logs;
    QCheck_alcotest.to_alcotest prop_gamma_monotone;
    Alcotest.test_case "seeded report reproducibility" `Slow
      test_report_deterministic;
    Alcotest.test_case "scorecard: lyra/dag beat hotstuff under sandwich"
      `Slow test_scorecard_pin;
  ]
