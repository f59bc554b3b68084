//! This workspace's `parking_lot`: non-poisoning RwLock/Mutex over `std`.

use std::sync::{
    Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard as StdReadGuard, RwLockWriteGuard as StdWriteGuard,
};

#[derive(Debug, Default)]
pub struct RwLock<T>(StdRwLock<T>);

pub type RwLockReadGuard<'a, T> = StdReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = StdWriteGuard<'a, T>;

impl<T> RwLock<T> {
    pub fn new(t: T) -> Self {
        RwLock(StdRwLock::new(t))
    }
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[derive(Debug, Default)]
pub struct Mutex<T>(StdMutex<T>);

pub type MutexGuard<'a, T> = StdMutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub fn new(t: T) -> Self {
        Mutex(StdMutex::new(t))
    }
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}
