(* Output checks, computed by the benchmark from the program's public
   values and independently of the program's own self-checks.  Each
   returns the problems it found; an empty list means the output holds. *)

module C = Apple_core
module Types = C.Types
module Sub = C.Subclass
module RG = C.Rule_generator
module Netstate = C.Netstate
module Inst = Apple_vnf.Instance
module Nf = Apple_vnf.Nf
module Walk = Apple_dataplane.Walk
module Failmask = Apple_dataplane.Failmask
module Slice = Apple_slice.Slice

let capacity_slack = 1.0001
let eps = 1e-6

type probe = {
  cls : Types.flow_class;
  sub : Sub.subclass;
  request : Walk.request;
}

let class_table (s : Types.scenario) =
  let h = Hashtbl.create (Array.length s.Types.classes) in
  Array.iter (fun (c : Types.flow_class) -> Hashtbl.replace h c.Types.id c)
    s.Types.classes;
  h

(* One packet per sub-class, sourced from the first prefix realising it.
   Sub-classes are grouped per class in assignment order, the order the
   rule generator realises them in; a sub-class with no prefix carries
   no traffic and has nothing to walk. *)
let probes (s : Types.scenario) (asg : Sub.assignment) (rules : RG.built) =
  let by_class = Hashtbl.create 64 in
  List.iter
    (fun sub ->
      let k = sub.Sub.class_id in
      Hashtbl.replace by_class k
        (sub :: Option.value ~default:[] (Hashtbl.find_opt by_class k)))
    asg.Sub.subclasses;
  let out = ref [] in
  Array.iter
    (fun (c : Types.flow_class) ->
      let subs =
        List.rev (Option.value ~default:[] (Hashtbl.find_opt by_class c.Types.id))
      in
      let prefixes =
        RG.subclass_prefixes c subs ~depth:rules.RG.split_depth
      in
      List.iteri
        (fun i sub ->
          match prefixes.(i) with
          | [] -> ()
          | p :: _ ->
              let request =
                {
                  Walk.rq_path = Array.to_list c.Types.path;
                  rq_cls = c.Types.id;
                  rq_src_ip = p.Types.Prefix.addr;
                  rq_start_in_host = false;
                  rq_flow = -1;
                }
              in
              out := { cls = c; sub; request } :: !out)
        subs)
    s.Types.classes;
  Array.of_list (List.rev !out)

(* Each walk visits exactly its class's routing path and its pinned
   instances, whose kinds are the class's chain in order, and none of
   them is dead. *)
let walks (asg : Sub.assignment) ?mask probes results =
  let acc = ref [] in
  let add fmt = Printf.ksprintf (fun m -> acc := m :: !acc) fmt in
  let kind_of = Hashtbl.create 64 in
  List.iter
    (fun i -> Hashtbl.replace kind_of (Inst.id i) (Inst.kind i))
    asg.Sub.instances;
  if Array.length probes <> Array.length results then
    add "%d walks for %d probes" (Array.length results) (Array.length probes);
  Array.iteri
    (fun i pr ->
      if i < Array.length results then
        let cid = pr.cls.Types.id and sid = pr.sub.Sub.sub_id in
        match results.(i) with
        | Error e ->
            add "class %d sub %d: walk failed (%s)" cid sid
              (Format.asprintf "%a" Walk.pp_error e)
        | Ok (tr : Walk.trace) ->
            if
              not
                (List.equal Int.equal tr.Walk.visited
                   (Array.to_list pr.cls.Types.path))
            then add "class %d sub %d: left its routing path" cid sid;
            let kinds =
              List.map
                (fun id ->
                  Option.map Nf.kind_index (Hashtbl.find_opt kind_of id))
                tr.Walk.instances
            in
            let chain =
              Array.to_list
                (Array.map (fun k -> Some (Nf.kind_index k)) pr.cls.Types.chain)
            in
            if not (List.equal (Option.equal Int.equal) kinds chain) then
              add "class %d sub %d: instance kinds differ from its chain" cid
                sid;
            let pinned =
              List.init (Array.length pr.sub.Sub.hops) (fun j ->
                  Option.map Inst.id
                    (Hashtbl.find_opt asg.Sub.instance_of (Sub.key pr.sub, j)))
            in
            if
              not
                (List.equal (Option.equal Int.equal)
                   (List.map Option.some tr.Walk.instances)
                   pinned)
            then add "class %d sub %d: walked instances are not its pinning" cid
                sid;
            match mask with
            | Some m when List.exists (Failmask.instance_down m) tr.Walk.instances
              ->
                add "class %d sub %d: walked through a dead instance" cid sid
            | _ -> ())
    probes;
  !acc

(* Loads summed from class rates x sub-class weights fit every pinned
   instance's capacity; every class's sub-class weights sum to 1; every
   host's instances fit its core budget. *)
let install (s : Types.scenario) (asg : Sub.assignment) =
  let acc = ref [] in
  let add fmt = Printf.ksprintf (fun m -> acc := m :: !acc) fmt in
  let classes = class_table s in
  let load = Hashtbl.create 64 and inst_of = Hashtbl.create 64 in
  let wsum = Hashtbl.create 64 in
  List.iter
    (fun sub ->
      let cid = sub.Sub.class_id in
      match Hashtbl.find_opt classes cid with
      | None -> add "sub-class of unknown class %d" cid
      | Some c ->
          Hashtbl.replace wsum cid
            (sub.Sub.weight
            +. Option.value ~default:0.0 (Hashtbl.find_opt wsum cid));
          let r = c.Types.rate *. sub.Sub.weight in
          Array.iteri
            (fun j _ ->
              match Hashtbl.find_opt asg.Sub.instance_of (Sub.key sub, j) with
              | None -> add "class %d sub %d: stage %d unpinned" cid sub.Sub.sub_id j
              | Some i ->
                  let id = Inst.id i in
                  Hashtbl.replace inst_of id i;
                  Hashtbl.replace load id
                    (r +. Option.value ~default:0.0 (Hashtbl.find_opt load id)))
            sub.Sub.hops)
    asg.Sub.subclasses;
  Hashtbl.iter
    (fun id l ->
      let cap = (Inst.spec (Hashtbl.find inst_of id)).Nf.capacity_mbps in
      if l > cap *. capacity_slack then
        add "instance %d: load %.3f Mbps over capacity %.3f" id l cap)
    load;
  Array.iter
    (fun (c : Types.flow_class) ->
      match Hashtbl.find_opt wsum c.Types.id with
      | None -> add "class %d has no sub-class" c.Types.id
      | Some w ->
          if Float.abs (w -. 1.0) > eps then
            add "class %d: sub-class weights sum to %.9f" c.Types.id w)
    s.Types.classes;
  let cores = Array.make (Array.length s.Types.host_cores) 0 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun i ->
      if not (Hashtbl.mem seen (Inst.id i)) then begin
        Hashtbl.replace seen (Inst.id i) ();
        let h = Inst.host i in
        cores.(h) <- cores.(h) + (Inst.spec i).Nf.cores
      end)
    asg.Sub.instances;
  Array.iteri
    (fun h used ->
      if used > s.Types.host_cores.(h) then
        add "host %d: %d cores used, budget %d" h used s.Types.host_cores.(h))
    cores;
  !acc

(* The healed instance appears in no pinning: not in the assignment's
   records, not among its instances, not in the live network state. *)
let healed ~dead (asg : Sub.assignment) (st : Netstate.t) =
  let acc = ref [] in
  let add fmt = Printf.ksprintf (fun m -> acc := m :: !acc) fmt in
  let is_dead i = Inst.id i = dead in
  Hashtbl.iter
    (fun (k, j) i -> if is_dead i then add "key %d stage %d still pinned to %d" k j dead)
    asg.Sub.instance_of;
  if List.exists is_dead asg.Sub.instances then
    add "instance %d still provisioned" dead;
  Array.iter
    (List.iter (fun (p : Netstate.pinned) ->
         if Array.exists is_dead p.Netstate.stage_instances then
           add "class %d sub %d still routed through %d" p.Netstate.p_class
             p.Netstate.p_sub dead))
    st.Netstate.per_class;
  !acc

(* Every resident slice's effective rate, read off the committed joint
   scenario (its classes in residency order, each carrying rate x share),
   lies between its guaranteed floor and its demand. *)
let slice_rates (s : Types.scenario) (residents : (int * Slice.spec) list) =
  let acc = ref [] in
  let add fmt = Printf.ksprintf (fun m -> acc := m :: !acc) fmt in
  let classes = s.Types.classes in
  let pos =
    List.fold_left
      (fun pos (_, (spec : Slice.spec)) ->
        let n = List.length spec.Slice.classes in
        if pos + n > Array.length classes then pos + n
        else begin
          let eff = ref 0.0 in
          for i = pos to pos + n - 1 do
            eff := !eff +. classes.(i).Types.rate
          done;
          let sla = spec.Slice.sla in
          let cap = Float.max sla.Slice.rate_mbps sla.Slice.demand_mbps in
          if !eff < sla.Slice.rate_mbps -. eps || !eff > cap +. eps then
            add "%s/%s: effective %.3f Mbps outside [%.3f, %.3f]"
              spec.Slice.tenant spec.Slice.name !eff sla.Slice.rate_mbps cap;
          List.iteri
            (fun i (cs : Slice.class_spec) ->
              let want = !eff *. cs.Slice.share in
              if Float.abs (classes.(pos + i).Types.rate -. want) > 1e-6 *. (1.0 +. want)
              then add "%s/%s: class %d rate is not its share" spec.Slice.tenant
                  spec.Slice.name i)
            spec.Slice.classes;
          pos + n
        end)
      0 residents
  in
  if pos <> Array.length classes then
    add "%d resident classes, %d committed" pos (Array.length classes);
  !acc
