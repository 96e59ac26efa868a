type frame = int

type t = {
  page_size : int;
  frames : bytes array;  (* [untouched] until a frame's first [alloc] *)
  free_stack : int array;  (* slots [0, free_count): a LIFO stack, [vm_page_free]'s order *)
  allocated : bool array;
  referenced : bool array;
  modified : bool array;
  mutable free_count : int;
}

let untouched = Bytes.empty
let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~frames ~page_size =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  if not (is_power_of_two page_size) then invalid_arg "Phys_mem.create: page_size must be a power of two";
  {
    page_size;
    frames = Array.make frames untouched;
    free_stack = Array.init frames (fun i -> frames - 1 - i);
    allocated = Array.make frames false;
    referenced = Array.make frames false;
    modified = Array.make frames false;
    free_count = frames;
  }

let page_size t = t.page_size
let total_frames t = Array.length t.frames
let free_frames t = t.free_count
let backed_frames t = Array.fold_left (fun n b -> if b == untouched then n else n + 1) 0 t.frames

let alloc t =
  if t.free_count = 0 then None
  else begin
    t.free_count <- t.free_count - 1;
    let f = t.free_stack.(t.free_count) in
    if t.frames.(f) == untouched then t.frames.(f) <- Bytes.make t.page_size '\000';
    t.allocated.(f) <- true;
    Some f
  end

let check t f =
  if f < 0 || f >= Array.length t.frames then invalid_arg "Phys_mem: bad frame";
  if not t.allocated.(f) then invalid_arg "Phys_mem: frame not allocated"

let free t f =
  check t f;
  Bytes.fill t.frames.(f) 0 t.page_size '\000';
  t.allocated.(f) <- false;
  t.referenced.(f) <- false;
  t.modified.(f) <- false;
  t.free_stack.(t.free_count) <- f;
  t.free_count <- t.free_count + 1

let data t f =
  check t f;
  t.frames.(f)

let read_into t f ~off dst ~pos ~len =
  check t f;
  Bytes.blit t.frames.(f) off dst pos len

let write t f ~off ?(pos = 0) ?len src =
  check t f;
  Bytes.blit src pos t.frames.(f) off (Option.value len ~default:(Bytes.length src - pos))

let fill t f c =
  check t f;
  Bytes.fill t.frames.(f) 0 t.page_size c

let copy t ~src ~dst =
  check t src;
  check t dst;
  Bytes.blit t.frames.(src) 0 t.frames.(dst) 0 t.page_size

let referenced t f =
  check t f;
  t.referenced.(f)

let modified t f =
  check t f;
  t.modified.(f)

let set_referenced t f v =
  check t f;
  t.referenced.(f) <- v

let set_modified t f v =
  check t f;
  t.modified.(f) <- v
