(* Operator-path benchmark for APPLE.

   One command drives a workload through the public APIs of apple_core,
   apple_verify, apple_dataplane and apple_slice from a single OCaml
   domain, checks the program's outputs, and prints every metric with its
   unit; the last line is one JSON object.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every workload runs the same round of operator paths — failover steps
   over a window of the diurnal day, a global re-optimization, VM kills
   and heals, cold and warm packet walks after each install, and a burst
   of slice arrivals and departures — on its own substrate and in its own
   proportions (see README.md).  Every timing is CPU time normalised by
   the reference kernel of calib.ml. *)

module C = Apple_core
module Types = C.Types
module Controller = C.Controller
module Netstate = C.Netstate
module DH = C.Dynamic_handler
module RO = C.Resource_orchestrator
module Sub = C.Subclass
module RG = C.Rule_generator
module Scenario = C.Scenario
module V = Apple_verify.Verify
module Walk = Apple_dataplane.Walk
module Compiled = Apple_dataplane.Compiled
module Failmask = Apple_dataplane.Failmask
module Slice = Apple_slice.Slice
module B = Apple_topology.Builders
module Synth = Apple_traffic.Synth
module Matrix = Apple_traffic.Matrix
module Rng = Apple_prelude.Rng
module Inst = Apple_vnf.Instance
module T = Apple_telemetry.Telemetry

let now = Calib.now

(* ---- workloads ------------------------------------------------------ *)

type workload = {
  name : string;
  topo : unit -> B.named;
  max_classes : int;
  engine : Controller.engine;  (** the controller's and the slice manager's *)
  heals : int;  (** VM kills and heals per window *)
  warm : int;  (** warm walk batches after each cold one *)
  base : int;  (** slices admitted at set-up *)
  slice_classes : int;
  snapshots : int;  (** traffic matrices in one diurnal day *)
}

(* A day is re-optimized (and followed by heals and a slice burst)
   [windows] times. *)
let windows = 2

(* Mbps offered by the substrate's gravity base. *)
let total_rate = 6000.0

(* Slices arriving, then departing, per burst, and each one's guaranteed
   Mbps. *)
let arrivals = 6
let slice_rate = 60.0

(* The substrate — the gravity base of the demand, hence the class set
   and its policy chains — is the operator's network and stays fixed;
   --seed drives everything that happens on it: the day's traffic noise
   and bursts, the victims they make hottest, and the slice stream. *)
let substrate_seed = 1

let workloads =
  [
    {
      name = "i2-day";
      topo = B.internet2;
      max_classes = 120;
      engine = `Best;
      heals = 4;
      warm = 10;
      base = 6;
      slice_classes = 3;
      (* Steps are cheap here: a finely cut day times four times as
         many, over four times as many traffic bursts, for about 0.1 s
         more a day. *)
      snapshots = 384;
    };
    {
      name = "as3679-2k";
      topo = B.as3679;
      max_classes = 2000;
      engine = `Per_class;
      heals = 1;
      warm = 8;
      base = 2;
      slice_classes = 2;
      snapshots = 96;
    };
  ]

(* ---- recording ------------------------------------------------------ *)

type recorder = {
  samples : (string, float list) Hashtbl.t;  (** op -> normalised ms *)
  layer : (string, float list) Hashtbl.t;  (** per-layer samples (traced) *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : string list;  (** failed checks, newest first *)
  mutable installs : (int * int * int) list;
      (** (instances, cores, TCAM) of each controller install *)
  mutable reopts : (int * int * int) list;  (** composition per reopt *)
  mutable live_words : int;
}

let recorder () =
  {
    samples = Hashtbl.create 16;
    layer = Hashtbl.create 64;
    attempted = 0;
    failed = 0;
    wrong = [];
    installs = [];
    reopts = [];
    live_words = 0;
  }

let push tbl key v =
  Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

let sample rc op ms = push rc.samples op ms
let layer rc name v = push rc.layer name v

(* A failed check fails its operation and the run. *)
let check rc what = function
  | [] -> true
  | ps ->
      List.iter (fun p -> rc.wrong <- (what ^ ": " ^ p) :: rc.wrong) ps;
      false

(* A telemetry counter; they only move in the traced pass, which enables
   telemetry. *)
let counter name =
  if not (T.enabled ()) then 0
  else match List.assoc_opt name (T.counters ()) with Some v -> v | None -> 0

(* Time one operation, returning its value and raw CPU seconds; an
   exception fails it.  Traced runs also charge the op's minor-heap
   allocation. *)
let timed_raw rc ~traced op f =
  rc.attempted <- rc.attempted + 1;
  let w0 = Gc.minor_words () in
  let t0 = now () in
  match f () with
  | v ->
      let dt = now () -. t0 in
      if traced then
        layer rc ("gc.minor_mwords." ^ op) ((Gc.minor_words () -. w0) /. 1e6);
      Some (v, dt)
  | exception e ->
      rc.failed <- rc.failed + 1;
      rc.wrong <- (op ^ " raised " ^ Printexc.to_string e) :: rc.wrong;
      None

let record rc ~k op dt =
  sample rc op (Calib.normalise ~k dt);
  sample rc (op ^ ".raw") (1000.0 *. dt)

(* Time one operation beside calibration point [k]. *)
let timed rc ~traced ~k op f =
  Option.map
    (fun (v, dt) ->
      record rc ~k op dt;
      v)
    (timed_raw rc ~traced op f)

(* Short operations — a window's steps, a walk group's batches, a slice
   burst's decisions — are normalised by the median of the calibration
   points taken among them: the look-back median spans the seconds of
   reopt and recommit work before them and does not follow the host over
   so short a stretch.  In six runs of i2-day the mean step's spread was
   0.17 with the look-back median and 0.06 with the steps' own points.
   A group's timings are recorded when it closes. *)
type group = {
  mutable points : float list;
  mutable pending : (float -> unit) list;  (** each records with kernel time k *)
}

let group () = { points = []; pending = [] }
let group_point g = g.points <- Calib.point () :: g.points
let defer g f = g.pending <- f :: g.pending

let close g =
  let k = Calib.median_of (Array.of_list g.points) in
  List.iter (fun f -> f k) (List.rev g.pending)

let timed_in g rc ~traced op f =
  Option.map
    (fun (v, dt) ->
      defer g (fun k -> record rc ~k op dt);
      v)
    (timed_raw rc ~traced op f)

let fail_op rc what msg =
  rc.failed <- rc.failed + 1;
  rc.wrong <- (what ^ ": " ^ msg) :: rc.wrong

(* ---- the substrate -------------------------------------------------- *)

type marks = {
  mutable shaped : float;  (** solve + sub-class assignment done *)
  mutable gate_in : float;  (** rule generation done *)
  mutable gate_out : float;
  mutable gate_rules : int;
  mutable hooked : float;  (** slice candidate built, gate next *)
}

type env = {
  w : workload;
  seed : int;
  traced : bool;
  topo : B.named;
  traffic : Rng.t;  (** the seeded stream every day's noise is drawn from *)
  profile : Synth.profile;
  demand : Matrix.t;  (** the substrate's gravity base *)
  mutable snaps : Matrix.t array;  (** the current day *)
  scenario : Types.scenario;
  ctrl : Controller.t;
  mgr : Slice.t;
  marks : marks;
  captured : (Types.scenario * Sub.assignment * RG.built) option ref;
      (** the last joint slice configuration handed to the gate *)
  mutable next_slice : int;
}

(* Slice [i]: the base population (i < base) belongs to the substrate,
   the arrivals to the seeded stream. *)
let slice_spec env i =
  let w = env.w in
  let seed = if i < w.base then substrate_seed else env.seed in
  Slice.synth_spec env.topo
    ~seed:((seed * 7919) + i)
    ~tenant:(Printf.sprintf "t%d" (i mod 4))
    ~name:(Printf.sprintf "s%d" i)
    ~isolated:(i mod 8 = 3)
    ~nat:(i mod 6 = 4)
    ~demand:(if i mod 3 = 1 then 2.0 *. slice_rate else slice_rate)
    ~rate:slice_rate ~classes:w.slice_classes ()

let report_of env =
  match
    ( Controller.last_report env.ctrl,
      Controller.assignment env.ctrl,
      Controller.netstate env.ctrl )
  with
  | Some r, Some a, Some s -> (r, a, s)
  | _ -> failwith "no installed epoch"

let composition (r : Controller.epoch_report) =
  (r.Controller.instances, r.Controller.cores, r.Controller.tcam_entries)

let note_install rc comp = rc.installs <- comp :: rc.installs

let check_controller rc env what =
  let _, asg, _ = report_of env in
  check rc what (Checks.install env.scenario asg)

(* Checks on a committed joint slice configuration and its residents. *)
let check_config rc what (s, asg, built) residents =
  let probes = Checks.probes s asg built in
  let results =
    Walk.run_batch built.RG.network
      ~requests:(Array.map (fun p -> p.Checks.request) probes)
      ()
  in
  check rc what
    (Checks.slice_rates s residents
    @ Checks.install s asg
    @ Checks.walks asg probes results)

(* Checks on the slice configuration committed by the last operation. *)
let check_slices rc env what =
  match !(env.captured) with
  | None -> true
  | Some c -> check_config rc what c (Slice.residents env.mgr)

let admit rc env g i =
  let spec = slice_spec env i in
  env.captured := None;
  group_point g;
  let pivots0 = counter "apple.lp.pivots" and walks0 = counter "apple.verify.walks" in
  let t0 = now () in
  match timed_in g rc ~traced:env.traced "admit" (fun () -> Slice.admit env.mgr spec) with
  | None -> ()
  | Some (Error reason) ->
      fail_op rc "admit"
        (Format.asprintf "%s/%s refused: %a" spec.Slice.tenant spec.Slice.name
           Slice.pp_reason reason)
  | Some (Ok (a : Slice.admitted)) ->
      let t1 = now () in
      if env.traced then begin
        let hooked = env.marks.hooked in
        defer g (fun k ->
            layer rc "slice.pre_gate_ms" (Calib.normalise ~k (hooked -. t0));
            layer rc "slice.gate_ms" (Calib.normalise ~k (t1 -. hooked)));
        layer rc "slice.verified_subclasses" (float_of_int a.Slice.verified_subclasses);
        layer rc "lp.pivots.admit" (float_of_int (counter "apple.lp.pivots" - pivots0));
        layer rc "verify.walks.admit" (float_of_int (counter "apple.verify.walks" - walks0))
      end;
      if not (check_slices rc env "admit") then rc.failed <- rc.failed + 1

let depart rc env g i =
  let spec = slice_spec env i in
  env.captured := None;
  group_point g;
  match
    timed_in g rc ~traced:env.traced "depart" (fun () ->
        Slice.depart env.mgr ~tenant:spec.Slice.tenant ~name:spec.Slice.name)
  with
  | None -> ()
  | Some (Error msg) -> fail_op rc "depart" msg
  | Some (Ok _) ->
      if not (check_slices rc env "depart") then rc.failed <- rc.failed + 1

(* Inputs built, the first configuration installed and the base slice
   population admitted.  Each base admission's outcome is returned with
   its committed configuration and residents, to be checked once the
   set-up is no longer timed. *)
let setup (w : workload) ~seed ~traced =
  let topo = w.topo () in
  let profile =
    {
      Synth.default_profile with
      Synth.snapshots = w.snapshots;
      period = w.snapshots;
      total_rate;
    }
  in
  let n = Apple_topology.Graph.num_nodes topo.B.graph in
  let base =
    Synth.gravity (Rng.create substrate_seed) ~n ~total:total_rate
  in
  let traffic = Rng.create seed in
  let snaps = Array.of_list (Synth.sequence traffic profile ~base) in
  let config = { Scenario.default_config with Scenario.max_classes = w.max_classes } in
  let scenario = Scenario.build ~config ~seed:substrate_seed topo base in
  let marks =
    { shaped = 0.0; gate_in = 0.0; gate_out = 0.0; gate_rules = 0; hooked = 0.0 }
  in
  let ctrl =
    if traced then
      let shape _ asg =
        marks.shaped <- now ();
        asg
      in
      let gate s asg (built : RG.built) =
        marks.gate_in <- now ();
        let r = V.gate s asg built in
        marks.gate_out <- now ();
        marks.gate_rules <- built.RG.tcam_with_tagging + built.RG.vswitch_rules;
        r
      in
      Controller.create ~engine:w.engine ~gate ~shape scenario
    else Controller.create ~engine:w.engine ~gate:V.gate scenario
  in
  let report = Controller.run_epoch ctrl in
  let captured = ref None in
  let mgr = Slice.create ~engine:w.engine ~seed topo in
  Slice.set_chaos_hook mgr
    (Some
       (fun s asg built ->
         marks.hooked <- now ();
         captured := Some (s, asg, built)));
  let env =
    {
      w;
      seed;
      traced;
      topo;
      traffic;
      profile;
      demand = base;
      snaps;
      scenario;
      ctrl;
      mgr;
      marks;
      captured;
      next_slice = 0;
    }
  in
  let base =
    List.init w.base (fun i ->
        let spec = slice_spec env i in
        captured := None;
        let r = Slice.admit mgr spec in
        (spec, r, !captured, Slice.residents mgr))
  in
  env.next_slice <- w.base;
  (env, report, base)

(* ---- one round ------------------------------------------------------ *)

(* One failover step; returns its raw CPU seconds and, traced, those of
   its parts, to be normalised once the window's calibration is known. *)
let step rc env tm =
  match (Controller.netstate env.ctrl, Controller.handler env.ctrl) with
  | Some st, Some h when env.traced ->
      let moves0 = counter "apple.failover.weight_moves" in
      let r =
        timed_raw rc ~traced:true "step" (fun () ->
            let t0 = now () in
            Scenario.update_rates env.scenario tm;
            let t1 = now () in
            DH.step h;
            let t2 = now () in
            ignore (Netstate.network_loss st);
            let t3 = now () in
            [
              ("scenario.update_rates_ms", t1 -. t0);
              ("dynamic_handler.step_ms", t2 -. t1);
              ("netstate.loss_ms", t3 -. t2);
            ])
      in
      layer rc "failover.weight_moves"
        (float_of_int (counter "apple.failover.weight_moves" - moves0));
      r
  | _ ->
      timed_raw rc ~traced:false "step" (fun () ->
          ignore (Controller.handle_snapshot env.ctrl tm);
          [])

(* A window's steps, with a calibration point every 16th step. *)
let steps rc env ~first ~count =
  let g = group () in
  for i = 0 to count - 1 do
    if i mod 16 = 0 then group_point g;
    Option.iter
      (fun (parts, dt) ->
        defer g (fun k ->
            record rc ~k "step" dt;
            List.iter (fun (name, t) -> layer rc name (Calib.normalise ~k t)) parts))
      (step rc env env.snaps.(first + i))
  done;
  close g

(* A cold batch right after an install, then warm ones over the same
   tables, one packet per sub-class; every batch's output is checked. *)
let walks rc env =
  let r, asg, st = report_of env in
  let probes = Checks.probes env.scenario asg r.Controller.rules in
  let requests = Array.map (fun p -> p.Checks.request) probes in
  let network = r.Controller.rules.RG.network in
  let mask = st.Netstate.mask in
  let g = group () in
  (* a calibration point every 4th batch *)
  let batch i op =
    if i mod 4 = 0 then group_point g;
    let c0, _ = Compiled.stats () in
    let t0 = now () in
    match timed_in g rc ~traced:env.traced op (fun () -> Walk.run_batch network ~requests ~mask ()) with
    | None -> ()
    | Some results ->
        let dt = now () -. t0 in
        if env.traced then
          if String.equal op "walk_cold" then
            layer rc "compiled.compiles" (float_of_int (fst (Compiled.stats ()) - c0))
          else
            defer g (fun k ->
                layer rc "walk.per_packet_us"
                  (1000.0 *. Calib.normalise ~k dt
                  /. float_of_int (max 1 (Array.length requests))));
        if not (check rc op (Checks.walks asg ~mask probes results)) then
          rc.failed <- rc.failed + 1
  in
  batch 0 "walk_cold";
  for i = 1 to env.w.warm do
    batch i "walk"
  done;
  close g

let reopt rc env =
  let k = Calib.block () in
  let ctr = List.map (fun n -> (n, counter ("apple." ^ n))) in
  let before = ctr [ "lp.pivots"; "lp.solves"; "opt.class_lps"; "verify.walks" ] in
  let t0 = now () in
  match timed rc ~traced:env.traced ~k "reopt" (fun () -> Controller.run_epoch env.ctrl) with
  | None -> false
  | Some report ->
      let t1 = now () in
      if env.traced then begin
        let m = env.marks in
        let ms a b = Calib.normalise ~k (b -. a) in
        layer rc "controller.solve_ms" (ms t0 m.shaped);
        layer rc "rule_generator.build_ms" (ms m.shaped m.gate_in);
        layer rc "verify.check_ms" (ms m.gate_in m.gate_out);
        layer rc "controller.install_ms" (ms m.gate_out t1);
        layer rc "verify.rules" (float_of_int m.gate_rules);
        List.iter
          (fun (n, v0) -> layer rc n (float_of_int (counter ("apple." ^ n) - v0)))
          before
      end;
      let comp = composition report in
      rc.reopts <- comp :: rc.reopts;
      note_install rc comp;
      if not (check_controller rc env "reopt") then rc.failed <- rc.failed + 1;
      true

(* The operator's VM-death drill on the hottest live instance: kill,
   repair, respawn, heal and re-prove. *)
let heal rc env =
  let _, _, st = report_of env in
  Netstate.recompute_loads st;
  let hottest =
    List.fold_left
      (fun acc i ->
        if Failmask.instance_down st.Netstate.mask (Inst.id i) then acc
        else
          match acc with
          | Some b
            when Float.compare (Inst.offered i) (Inst.offered b) < 0
                 || (Float.compare (Inst.offered i) (Inst.offered b) = 0
                    && Inst.id i > Inst.id b) ->
              acc
          | _ -> Some i)
      None (Netstate.instances_in_use st)
  in
  match (hottest, Controller.handler env.ctrl) with
  | None, _ | _, None ->
      fail_op rc "heal" "no live instance to kill";
      false
  | Some dead, Some h ->
      let k = Calib.block () in
      let part name f =
        if env.traced then begin
          let t0 = now () in
          let v = f () in
          layer rc name (Calib.normalise ~k (now () -. t0));
          v
        end
        else f ()
      in
      let gate_walks0 = counter "apple.verify.walks" in
      let ok =
        timed rc ~traced:env.traced ~k "heal" (fun () ->
            Failmask.fail_instance st.Netstate.mask (Inst.id dead);
            ignore (part "dynamic_handler.repair_ms" (fun () -> DH.repair h ~dead));
            let replacement =
              part "resource_orchestrator.respawn_ms" (fun () ->
                  RO.respawn st.Netstate.orchestrator dead)
            in
            part "controller.heal_instance_ms" (fun () ->
                Controller.heal_instance env.ctrl ~dead ~replacement);
            part "controller.recheck_gate_ms" (fun () ->
                Controller.recheck_gate env.ctrl))
      in
      if env.traced then
        layer rc "verify.walks.heal"
          (float_of_int (counter "apple.verify.walks" - gate_walks0));
      (match ok with
      | None -> ()
      | Some (Error msg) -> fail_op rc "heal" ("gate refused the healed tables: " ^ msg)
      | Some (Ok ()) ->
          let r, asg, st = report_of env in
          note_install rc (composition r);
          if
            not
              (check rc "heal"
                 (Checks.healed ~dead:(Inst.id dead) asg st
                 @ Checks.install env.scenario asg))
          then rc.failed <- rc.failed + 1);
      true

(* Arrivals, a depart/re-admit of an identical spec (which must restore
   the identical substrate fingerprint), then the departures. *)
let slice_round rc env =
  let first = env.next_slice and n = arrivals in
  let g = group () in
  for j = 0 to n - 1 do
    admit rc env g (first + j)
  done;
  let last = first + n - 1 in
  let fp = Slice.fingerprint env.mgr in
  depart rc env g last;
  admit rc env g last;
  if not (String.equal fp (Slice.fingerprint env.mgr)) then begin
    rc.wrong <- "re-admit did not restore the substrate fingerprint" :: rc.wrong;
    rc.failed <- rc.failed + 1
  end;
  for j = 0 to n - 1 do
    depart rc env g (first + j)
  done;
  close g;
  env.next_slice <- first + n

let live_point rc =
  Gc.full_major ();
  let s = Gc.stat () in
  rc.live_words <- max rc.live_words s.Gc.live_words

(* One round: a day of traffic in time order, re-optimized at the end of
   every window, each window followed by heals and a slice burst; the
   next day's traffic is drawn at the end. *)
let round rc env =
  let w = env.w in
  let per = w.snapshots / windows in
  for win = 0 to windows - 1 do
    steps rc env ~first:(win * per) ~count:per;
    if reopt rc env then walks rc env;
    for _ = 1 to w.heals do
      if heal rc env then walks rc env
    done;
    slice_round rc env
  done;
  live_point rc;
  env.snaps <-
    Array.of_list (Synth.sequence env.traffic env.profile ~base:env.demand)

(* ---- runs ----------------------------------------------------------- *)

let merge_into rc (b : recorder) =
  rc.attempted <- rc.attempted + b.attempted;
  rc.failed <- rc.failed + b.failed;
  rc.wrong <- b.wrong @ rc.wrong;
  rc.installs <- b.installs @ rc.installs

(* Set up, then check what the set-up installed; returns the environment
   and the set-up's raw CPU seconds, which exclude the checks. *)
let timed_setup w ~seed ~traced rc =
  let t0 = now () in
  let env, report, base = setup w ~seed ~traced in
  let dt = now () -. t0 in
  rc.attempted <- rc.attempted + 1;
  note_install rc (composition report);
  if not (check_controller rc env "setup") then rc.failed <- rc.failed + 1;
  List.iter
    (fun ((spec : Slice.spec), r, captured, residents) ->
      rc.attempted <- rc.attempted + 1;
      match (r, captured) with
      | Error reason, _ ->
          fail_op rc "admit"
            (Format.asprintf "%s/%s refused: %a" spec.Slice.tenant
               spec.Slice.name Slice.pp_reason reason)
      | Ok _, None -> fail_op rc "admit" "no configuration reached the gate"
      | Ok _, Some c ->
          if not (check_config rc "admit" c residents) then
            rc.failed <- rc.failed + 1)
    base;
  (env, dt)

(* Whole rounds until [seconds] of wall time have passed. *)
let rounds rc env ~seconds ~min =
  let t0 = Unix.gettimeofday () in
  let r = ref 0 in
  while !r < min || Unix.gettimeofday () -. t0 < seconds do
    round rc env;
    incr r
  done;
  !r

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let quantile l q =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let mean l =
  match l with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let ops rc op = Option.value ~default:[] (Hashtbl.find_opt rc.samples op)

type metric = { m_name : string; value : float; unit_ : string; note : string }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit ~correct rc metrics =
  List.iter
    (fun m -> Printf.printf "  %-30s %16.6f %-7s %s\n" m.m_name m.value m.unit_ m.note)
    metrics;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev rc.wrong);
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct rc.attempted rc.failed (String.concat ", " fields)

(* Fill the normaliser's look-back window before the first timing; the
   first kernel calls of a process also fault in its minor heap, so they
   are left out. *)
let warm_calibration () =
  for _ = 1 to 10 do
    ignore (Calib.kernel_once ())
  done;
  for _ = 1 to Calib.window do
    ignore (Calib.block ())
  done

(* One set-up, timed beside its own calibration point like every other
   operation. *)
let measured_setup w ~seed rc =
  let k = Calib.block () in
  let env, dt = timed_setup w ~seed ~traced:false rc in
  sample rc "setup" (Calib.normalise ~k dt /. 1000.0);
  sample rc "setup.raw" dt;
  env

let measured w ~seed ~seconds =
  let rc = recorder () in
  warm_calibration ();
  let env = measured_setup w ~seed rc in
  live_point rc;
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while !n < 1 || Unix.gettimeofday () -. t0 < seconds do
    round rc env;
    incr n;
    (* After every day a fresh substrate is set up and dropped, so the
       set-ups are spread over the run like the other operations.  Its
       install is no part of the live substrate's composition. *)
    let installs = rc.installs in
    ignore (measured_setup w ~seed rc);
    rc.installs <- installs
  done;
  let n = !n in
  let elapsed = Unix.gettimeofday () -. t0 in
  let stat op q unit_ name =
    let l = ops rc op in
    {
      m_name = name;
      value = quantile l q;
      unit_;
      note =
        Printf.sprintf "(n=%d, raw %.6g %s)" (List.length l)
          (quantile (ops rc (op ^ ".raw")) q) unit_;
    }
  in
  (* Steps are timed as a day's mean: the half-day of traffic above the
     configuration it was re-optimized for runs the failover on every
     step, the other half hardly at all, so the two halves' step times
     hardly overlap and any percentile of the day sits on one half's
     edge. *)
  let mean_stat op unit_ name =
    let l = ops rc op in
    { m_name = name; value = mean l; unit_;
      note = Printf.sprintf "(n=%d, raw %.6g ms)" (List.length l) (mean (ops rc (op ^ ".raw"))) }
  in
  let comp f name =
    { m_name = name; value = mean (List.map (fun c -> float_of_int (f c)) rc.installs);
      unit_ = "count"; note = Printf.sprintf "(n=%d installs)" (List.length rc.installs) }
  in
  let metrics =
    [
      stat "setup" 0.5 "s" "setup_s";
      stat "reopt" 0.5 "ms" "reopt_ms.p50";
      mean_stat "step" "ms" "step_ms.mean";
      stat "heal" 0.5 "ms" "heal_ms.p50";
      stat "walk" 0.5 "ms" "walk_ms.p50";
      stat "walk_cold" 0.5 "ms" "walk_cold_ms.p50";
      stat "admit" 0.5 "ms" "admit_ms.p50";
      stat "depart" 0.5 "ms" "depart_ms.p50";
      comp (fun (i, _, _) -> i) "instances.mean";
      comp (fun (_, c, _) -> c) "cores.mean";
      comp (fun (_, _, t) -> t) "tcam.mean";
      {
        m_name = "live_mb";
        value = float_of_int (rc.live_words * (Sys.word_size / 8)) /. 1e6;
        unit_ = "MB";
        note = "";
      };
    ]
  in
  let _, asg, _ = report_of env in
  Printf.printf
    "workload %s seed %d: %d classes, %d sub-classes, %.0f Mbps; %d rounds \
     (days) in %.1f s; reference kernel %.4f ms raw (constant %.1f ms)\n"
    w.name seed
    (Array.length env.scenario.Types.classes)
    (List.length asg.Sub.subclasses)
    (Types.total_rate env.scenario)
    n elapsed (Calib.kernel_ms ()) Calib.reference_ms;
  (rc, metrics)

let traced w ~seed ~seconds =
  (* Untraced pass: the same inputs, for the overhead and composition
     baselines. *)
  let plain = recorder () in
  warm_calibration ();
  let env, _ = timed_setup w ~seed ~traced:false plain in
  let n = rounds plain env ~seconds:(seconds /. 2.0) ~min:1 in
  let rc = recorder () in
  let env, _ = timed_setup w ~seed ~traced:true rc in
  T.set_enabled true;
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  for _ = 1 to n do
    round rc env
  done;
  let majors = (Gc.quick_stat ()).Gc.major_collections - gc0 in
  T.set_enabled false;
  merge_into rc { plain with installs = [] };
  if
    not
      (List.equal
         (fun (a, b, c) (x, y, z) -> a = x && b = y && c = z)
         plain.reopts rc.reopts)
  then
    rc.wrong <- "traced reopt composition differs from the untraced run" :: rc.wrong;
  (* Both passes ran the same rounds, so reopt k of one is reopt k of
     the other on the same traffic: the overhead is the median of the
     paired ratios. *)
  let overhead =
    match
      List.map2 (fun a b -> a /. b) (ops rc "reopt") (ops plain "reopt")
    with
    | ratios -> 100.0 *. (quantile ratios 0.5 -. 1.0)
    | exception Invalid_argument _ -> nan
  in
  let lv name unit_ agg =
    let l = Option.value ~default:[] (Hashtbl.find_opt rc.layer name) in
    let v = match l with [] -> 0.0 | _ -> agg l in
    { m_name = name; value = v; unit_; note = Printf.sprintf "(n=%d)" (List.length l) }
  in
  let t name = lv name "ms" (fun l -> quantile l 0.5) in
  let c name = lv name "count" mean in
  let metrics =
    [
      t "controller.solve_ms"; c "lp.pivots"; c "lp.solves"; c "opt.class_lps";
      t "rule_generator.build_ms"; t "verify.check_ms"; c "verify.walks";
      c "verify.rules"; t "controller.install_ms";
      t "dynamic_handler.repair_ms"; t "resource_orchestrator.respawn_ms";
      t "controller.heal_instance_ms"; t "controller.recheck_gate_ms";
      c "verify.walks.heal";
      t "scenario.update_rates_ms"; t "dynamic_handler.step_ms";
      t "netstate.loss_ms"; c "failover.weight_moves";
      lv "walk.per_packet_us" "us" (fun l -> quantile l 0.5);
      c "compiled.compiles";
      t "slice.pre_gate_ms"; t "slice.gate_ms"; c "slice.verified_subclasses";
      c "lp.pivots.admit"; c "verify.walks.admit";
    ]
    @ List.map
        (fun op -> lv ("gc.minor_mwords." ^ op) "Mwords" mean)
        [ "reopt"; "step"; "heal"; "walk"; "walk_cold"; "admit"; "depart" ]
    @ [
        { m_name = "gc.major_collections"; value = float_of_int majors /. float_of_int n;
          unit_ = "count"; note = "(per round)" };
        { m_name = "calib.kernel_ms"; value = Calib.kernel_ms (); unit_ = "ms"; note = "(raw)" };
        { m_name = "trace.overhead_pct";
          value = overhead; unit_ = "%";
          note = "(traced vs untraced reopt, paired)" };
      ]
  in
  Printf.printf "workload %s seed %d (traced): %d rounds; reference kernel %.4f ms raw\n"
    w.name seed n (Calib.kernel_ms ());
  (rc, metrics)

let usage () =
  prerr_endline
    "usage: main.exe --workload i2-day|as3679-2k --seed N --seconds S --trace 0|1";
  exit 2

let () =
  Unix.putenv "APPLE_JOBS" "1";
  Compiled.set_mode Compiled.Compiled;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let name = get "workload" in
  let w =
    match List.find_opt (fun w -> String.equal w.name name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let trace = int_arg "trace" in
  if seconds <= 0.0 || (trace <> 0 && trace <> 1) then usage ();
  let rc, metrics =
    if trace = 1 then traced w ~seed ~seconds else measured w ~seed ~seconds
  in
  let correct = rc.wrong = [] in
  emit ~correct rc metrics;
  exit (if correct then 0 else 1)
