(* perfbench — the repository benchmark.

     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     perfbench --list

   Prints every metric by name with its unit, then one JSON result line.
   Exit codes: 0 correct, 1 a correctness gate failed, 2 usage error. *)

open Perfbench

let usage =
  "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
  \       perfbench --list"

let describe () =
  print_endline "workloads:";
  List.iter
    (fun (w : Workloads.t) -> Printf.printf "  %-22s %s\n" w.name w.why)
    Workloads.all;
  print_endline "end-to-end metrics (bound = allowed worsening share):";
  List.iter
    (fun (m : Catalog.t) ->
      Printf.printf "  %-26s %-6s %s better, bound %.2f\n" m.name m.unit
        (Catalog.better_name m.better)
        (Option.value ~default:0. m.bound))
    Catalog.end_to_end;
  print_endline "per-layer metrics -> end-to-end metric they should move, on:";
  List.iter
    (fun (m : Catalog.t) ->
      Printf.printf "  %-30s %-7s %-6s -> %s, on %s\n" m.name m.unit
        (Catalog.better_name m.better)
        m.moves m.on)
    Catalog.per_layer

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let finish ~failures ~summaries rows =
  Report.table rows;
  List.iter (fun f -> prerr_endline ("perfbench: FAILED: " ^ f)) failures;
  let attempted, failed = Runner.counts summaries in
  let correct = List.is_empty failures in
  print_endline (Report.result_line ~correct ~attempted ~failed rows);
  exit (if correct then 0 else 1)

let untraced (w : Workloads.t) ~seed ~seconds =
  let k = Workloads.case_count w ~seconds in
  Printf.printf "perfbench %s seed=%Ld cases=%d trace=0\n%!" w.name seed k;
  let summaries =
    List.init k (fun i ->
        let seed = Runner.case_seed seed i in
        let c = Runner.run_case w ~seed in
        Printf.printf "  case %d seed=%Ld: %.3f s wall (%.3f s raw; probe %.1f us, %d samples)\n%!"
          i seed (Runner.wall_s c) (c.finished_s -. c.probe.entered_s) c.probe_us
          (c.speed_to.count - c.speed_from.count);
        Runner.summarise c)
  in
  let rows, empty =
    Report.resolve w Catalog.end_to_end (Runner.end_to_end summaries)
  in
  finish
    ~failures:(List.concat_map (fun (s : Runner.summary) -> s.gate) summaries @ empty)
    ~summaries rows

let traced (w : Workloads.t) ~seed =
  Printf.printf "perfbench %s seed=%Ld trace=1\n%!" w.name seed;
  let reference = Runner.summarise (Runner.run_case w ~seed) in
  let gc = Gc_trace.start () in
  let c = Runner.run_case ~gc w ~seed in
  let traced = Runner.summarise c in
  let rows, empty =
    Report.resolve w Catalog.per_layer
      (Runner.per_layer w ~reference_wall_s:reference.wall_s c)
  in
  let checks =
    (if Runner.same_simulation reference traced then []
     else [ "traced run diverged from the untraced run" ])
    @
    if c.gc_lost > 0 then
      [ Printf.sprintf "runtime-events ring dropped %d events" c.gc_lost ]
    else []
  in
  let failures = traced.gate @ checks @ empty in
  let path = Printf.sprintf "perfbench/out/%s-seed%Ld.json" w.name seed in
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  let json =
    Report.to_json w ~seed ~gate:failures ~gc_phases:(Gc_trace.phases gc) rows
  in
  let failures =
    match Report.write path json with
    | Ok () ->
        Printf.printf "per-layer report: %s\n" path;
        failures
    | Error e -> failures @ [ "report: " ^ e ]
  in
  finish ~failures ~summaries:[ traced ] rows

let () =
  let workload = ref None
  and seed = ref 1
  and seconds = ref 20
  and trace = ref 0
  and list = ref false in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N benchmark seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measuring time; scales the case count (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--list", Arg.Set list, " list workloads and metrics");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with
  | Arg.Bad msg -> fail_usage msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !list then (
    describe ();
    exit 0);
  List.iter
    (fun (m : Catalog.t) ->
      if not (Catalog.valid_name m.name) then fail_usage ("bad metric name " ^ m.name))
    (Catalog.end_to_end @ Catalog.per_layer);
  let w =
    match Option.bind !workload Workloads.find with
    | Some w -> w
    | None ->
        fail_usage
          ("--workload must be one of: "
          ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))
  in
  if !seconds < 1 then fail_usage "--seconds must be at least 1";
  let seed = Int64.of_int !seed in
  match !trace with
  | 0 -> untraced w ~seed ~seconds:!seconds
  | 1 -> traced w ~seed
  | _ -> fail_usage "--trace must be 0 or 1"
