//! Experience replay (Mnih et al., 2015), as used by the paper's trainer.

use std::io::{self, Read, Write};

use simrng::{Rng, SimRng};

use crate::wire;

/// One stored transition `⟨state, action, reward, next state⟩`.
#[derive(Clone, Debug, PartialEq)]
pub struct Transition {
    /// Encoded state at decision time.
    pub state: Vec<f32>,
    /// Chosen victim way.
    pub action: u16,
    /// Reward for the decision (+1 Belady-optimal, −1 harmful, 0 neutral).
    pub reward: f32,
    /// Encoded state at the next decision.
    pub next_state: Vec<f32>,
}

/// A bounded circular buffer of transitions with uniform random sampling.
///
/// Sampling random past transitions "breaks the similarity of subsequent
/// training samples", preventing the network from chasing its own tail
/// (paper §III-A, *Training*).
///
/// ```
/// use rl::{ReplayBuffer, Transition};
///
/// let mut buf = ReplayBuffer::new(2);
/// for i in 0..3 {
///     buf.push(Transition {
///         state: vec![i as f32],
///         action: 0,
///         reward: 0.0,
///         next_state: vec![],
///     });
/// }
/// assert_eq!(buf.len(), 2); // oldest entry was overwritten
/// ```
#[derive(Clone, Debug)]
pub struct ReplayBuffer {
    entries: Vec<Transition>,
    capacity: usize,
    head: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer needs capacity");
        Self { entries: Vec::with_capacity(capacity.min(1 << 20)), capacity, head: 0 }
    }

    /// Stores a transition, overwriting the oldest once full.
    pub fn push(&mut self, t: Transition) {
        if self.entries.len() < self.capacity {
            self.entries.push(t);
        } else {
            self.entries[self.head] = t;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every stored transition, in storage order.
    pub(crate) fn transitions(&self) -> &[Transition] {
        &self.entries
    }

    /// Samples one uniformly random stored transition.
    pub fn sample<'a>(&'a self, rng: &mut SimRng) -> Option<&'a Transition> {
        if self.entries.is_empty() {
            None
        } else {
            Some(&self.entries[rng.gen_range(0..self.entries.len())])
        }
    }

    /// Serializes the buffer — capacity, write cursor, and every stored
    /// transition — so a restored trainer replays the exact same samples.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        wire::write_u64(&mut w, self.capacity as u64)?;
        wire::write_u64(&mut w, self.head as u64)?;
        wire::write_u64(&mut w, self.entries.len() as u64)?;
        for t in &self.entries {
            wire::write_f32s(&mut w, &t.state)?;
            wire::write_u32(&mut w, u32::from(t.action))?;
            wire::write_f32(&mut w, t.reward)?;
            wire::write_f32s(&mut w, &t.next_state)?;
        }
        Ok(())
    }

    /// Deserializes a buffer written by [`ReplayBuffer::save`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or malformed input.
    pub fn load<R: Read>(mut r: R) -> io::Result<Self> {
        let capacity = wire::read_u64(&mut r)? as usize;
        let head = wire::read_u64(&mut r)? as usize;
        let len = wire::read_u64(&mut r)? as usize;
        if capacity == 0 || len > capacity || (len == capacity && head >= capacity) || (len < capacity && head != 0) {
            return Err(wire::bad_data("implausible replay-buffer geometry"));
        }
        // A transition is 56 bytes before its states: pre-size for few, so
        // a corrupt length cannot reserve megabytes before the data ends.
        let mut entries = Vec::with_capacity(len.min(1 << 12));
        for _ in 0..len {
            let state = wire::read_f32s(&mut r)?;
            let action = wire::read_u32(&mut r)?;
            if action > u32::from(u16::MAX) {
                return Err(wire::bad_data("implausible replay action"));
            }
            let reward = wire::read_f32(&mut r)?;
            let next_state = wire::read_f32s(&mut r)?;
            entries.push(Transition { state, action: action as u16, reward, next_state });
        }
        Ok(Self { entries, capacity, head })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(tag: f32) -> Transition {
        Transition { state: vec![tag], action: 0, reward: 0.0, next_state: vec![] }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(t(i as f32));
        }
        assert_eq!(buf.len(), 3);
        let tags: Vec<f32> = buf.entries.iter().map(|e| e.state[0]).collect();
        // Entries 0 and 1 were overwritten by 3 and 4.
        assert!(tags.contains(&2.0) && tags.contains(&3.0) && tags.contains(&4.0));
        assert!(!tags.contains(&0.0));
    }

    #[test]
    fn sample_covers_the_buffer() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..8 {
            buf.push(t(i as f32));
        }
        let mut rng = SimRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(buf.sample(&mut rng).expect("non-empty").state[0] as i64);
        }
        assert_eq!(seen.len(), 8, "uniform sampling should reach every slot");
    }

    #[test]
    fn save_load_roundtrips_entries_and_cursor() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(Transition {
                state: vec![i as f32, 2.0 * i as f32],
                action: i as u16,
                reward: -0.5,
                next_state: if i == 4 { vec![] } else { vec![9.0] },
            });
        }
        let mut bytes = Vec::new();
        buf.save(&mut bytes).expect("in-memory save");
        let back = ReplayBuffer::load(bytes.as_slice()).expect("load");
        assert_eq!(back.capacity, buf.capacity);
        assert_eq!(back.head, buf.head);
        assert_eq!(back.entries, buf.entries);
        // A corrupt prefix is rejected rather than mis-parsed.
        assert!(ReplayBuffer::load(&bytes[..7]).is_err());
    }

    #[test]
    fn empty_buffer_samples_none() {
        let buf = ReplayBuffer::new(4);
        let mut rng = SimRng::seed_from_u64(1);
        assert!(buf.sample(&mut rng).is_none());
    }
}
