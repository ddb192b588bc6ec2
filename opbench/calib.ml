(* The reference kernel.  Raw seconds on a small shared host drift by
   tens of percent over a minute, and the kernel drifts with them: every
   timing is divided by the kernel time measured next to it and reported
   as time at the kernel's reference speed.

   The kernel is the benchmark's own code and calls nothing in the
   program.  It allocates only short-lived values (small lists and a
   small hash table), so its cost tracks the host's speed and not the
   program's heap size, and it runs at fixed points of the operation
   sequence (never on a timer), so allocation figures stay
   deterministic. *)

external cputime : unit -> float = "opbench_cputime"

(* Every timing is CPU time of the (single-domain) process: wall time on a
   shared host also counts the time other tenants held the CPU. *)
let now = cputime

(* Median raw time of one kernel call on the reference host (2-CPU
   x86-64 container, OCaml 5.1 native code) — see README.md. *)
let reference_ms = 2.0

let iterations = 1000

let kernel_once () =
  let tbl = Hashtbl.create 64 in
  let acc = ref 0 in
  for i = 1 to iterations do
    let l = List.init 24 (fun j -> ((i * 7919) + (j * 104729)) land 0xffff) in
    let l = List.sort Int.compare l in
    List.iter (fun x -> Hashtbl.replace tbl (x land 127) x) l;
    acc := !acc + List.fold_left (fun a x -> a + (x land 7)) 0 (List.rev l)
  done;
  !acc + Hashtbl.length tbl

let expected = kernel_once ()

let median_of (a : float array) =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Every calibration point's kernel time, newest first, in seconds. *)
let history = ref []

(* Calibration points the normaliser looks back over. *)
let window = 15

(* One calibration point: the fastest of three kernel calls (preemption
   only ever adds time), in seconds, kept in the history.  A kernel
   result other than the first call's means the host computes wrongly,
   and the run is void. *)
let point () =
  let times =
    Array.init 3 (fun _ ->
        let t0 = now () in
        let r = kernel_once () in
        let dt = now () -. t0 in
        if r <> expected then failwith "reference kernel result changed";
        dt)
  in
  Array.sort Float.compare times;
  history := times.(0) :: !history;
  times.(0)

(* A calibration point, returning the median over the last [window]
   points, in seconds: single points scatter more than the host drifts,
   so the normaliser follows the drift without copying the scatter. *)
let block () =
  ignore (point ());
  median_of (Array.of_list (List.filteri (fun i _ -> i < window) !history))

(* [raw] seconds measured beside kernel time [k], as milliseconds at the
   kernel's reference speed. *)
let normalise ~k raw = raw *. reference_ms /. k

let kernel_ms () = 1000.0 *. median_of (Array.of_list !history)
